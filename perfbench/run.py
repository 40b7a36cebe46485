#!/usr/bin/env python3
"""Benchmark of the cacseg kit: one workload per process.

    python3 perfbench/run.py --workload train-desk64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's own `src/`; without it the run exits with code 2 and prints no
result. Inputs are drawn from --seed. Set-up runs SETUP_REPEATS times and
its median is reported; the timed phase then runs whole rounds of the
workload's main path for --seconds, and the program's outputs are checked
against independent computations. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 wraps the program's public functions from
outside and reports the per-layer metrics instead (see README.md).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("train-desk64", "train-deep128", "infer-desk64")

# BLAS threads: two, or fewer if the process may use fewer cores. Two ran
# faster than one and no noisier (README.md, "Steadiness").
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 3
MIN_ROUNDS = 3

# Every attention prefix of the L4 net; on the L2 workloads enc3, enc4,
# dec2 and dec3 read 0.
ATTENTION_BLOCKS = ([f"enc{k}.rica" for k in range(5)]
                    + [f"enc{k}.rica.ca" for k in range(5)]
                    + [f"dec{k}.ca" for k in range(4)])


def end_to_end_names() -> list[tuple[str, str, str]]:
    return [("setup_s", "s", "lower"), ("slices_per_s", "slices/s", "higher"),
            ("peak_rss_mb", "MB", "lower")]


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for op in spans.OPS:
        out += [(f"tensor.{op}.fwd_ms", "ms/slice", "lower"),
                (f"tensor.{op}.bwd_ms", "ms/slice", "lower")]
    out += [("tensor.conv2d.gflop", "GFLOP/slice", "lower"),
            ("tensor.conv2d.fwd_gflops", "GFLOP/s", "higher"),
            ("tensor.conv2d.bwd_gflops", "GFLOP/s", "higher"),
            ("tensor.backward.engine_ms", "ms/slice", "lower"),
            ("tensor.graph_nodes", "nodes/step", "lower"),
            ("tensor.graph_mb", "MB/step", "lower")]
    for b in ATTENTION_BLOCKS:
        out += [(f"attention.{b}.fwd_ms", "ms/slice", "lower"),
                (f"attention.{b}.bwd_ms", "ms/slice", "lower")]
    out += [(name, "ms/slice", "lower") for name in (
        "network.forward_ms", "losses.fwd_ms", "losses.bwd_ms", "training.adam_ms",
        "training.validate_ms", "data.sample_ms", "data.augment_ms",
        "data.preprocess_ms")]
    out.append(("data.phantom_ms", "ms/phantom", "lower"))
    out += [(name, "ms/slice", "lower") for name in (
        "params.save_checkpoint_ms", "params.load_checkpoint_ms",
        "evaluation.agatston_ms", "evaluation.export_ms")]
    out += [("process.minor_faults_per_slice", "1/slice", "lower"),
            ("process.sys_ms_per_slice", "ms/slice", "lower"),
            ("process.step_peak_mb", "MB", "lower")]
    return out


def layer_values(tr, slices: int, phantom_s: float, phantom_slices: float,
                 usage: tuple) -> dict:
    """Per-layer figures from the timed phase's spans, per main-path slice."""
    def ms(seconds):
        return seconds * 1000.0 / slices

    v = {}
    for op in spans.OPS:
        v[f"tensor.{op}.fwd_ms"] = ms(tr.self_time[f"tensor.{op}.fwd"])
        v[f"tensor.{op}.bwd_ms"] = ms(tr.self_time[f"tensor.{op}.bwd"])
    fwd_flop = tr.counters["tensor.conv2d.fwd.flop"]
    bwd_flop = tr.counters["tensor.conv2d.bwd.flop"]
    fwd_s, bwd_s = tr.self_time["tensor.conv2d.fwd"], tr.self_time["tensor.conv2d.bwd"]
    v["tensor.conv2d.gflop"] = (fwd_flop + bwd_flop) / 1e9 / slices
    v["tensor.conv2d.fwd_gflops"] = fwd_flop / 1e9 / fwd_s if fwd_s else 0.0
    v["tensor.conv2d.bwd_gflops"] = bwd_flop / 1e9 / bwd_s if bwd_s else 0.0
    v["tensor.backward.engine_ms"] = ms(tr.self_time["tensor.backward"])
    steps = tr.calls["tensor.backward"]
    v["tensor.graph_nodes"] = tr.counters["tensor.graph_nodes"] / steps if steps else 0.0
    v["tensor.graph_mb"] = tr.counters["tensor.graph_mb"] / steps if steps else 0.0
    for b in ATTENTION_BLOCKS:
        v[f"attention.{b}.fwd_ms"] = ms(tr.total[f"attention.{b}.fwd"])
        v[f"attention.{b}.bwd_ms"] = ms(tr.total[f"attention.{b}.bwd"])
    for metric, span in (("network.forward_ms", "network.forward"),
                         ("losses.fwd_ms", "losses.fwd"), ("losses.bwd_ms", "losses.bwd"),
                         ("training.adam_ms", "training.adam"),
                         ("training.validate_ms", "training.validate"),
                         ("data.sample_ms", "data.sample"),
                         ("data.augment_ms", "data.augment"),
                         ("data.preprocess_ms", "data.preprocess"),
                         ("params.save_checkpoint_ms", "params.save_checkpoint"),
                         ("params.load_checkpoint_ms", "params.load_checkpoint"),
                         ("evaluation.agatston_ms", "evaluation.agatston"),
                         ("evaluation.export_ms", "evaluation.export")):
        v[metric] = ms(tr.total[span])
    v["data.phantom_ms"] = phantom_s * 1000.0 / phantom_slices if phantom_slices else 0.0
    faults, sys_s = usage
    v["process.minor_faults_per_slice"] = faults / slices
    v["process.sys_ms_per_slice"] = ms(sys_s)
    v["process.step_peak_mb"] = tr.peaks["process.step_peak_mb"]
    return v


def _import_program():
    """Import numpy and cacseg from this checkout, BLAS threads pinned first."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "cacseg" / "__init__.py").is_file():
        raise ImportError(f"no cacseg package under {src}")
    sys.path.insert(0, str(src))
    import cacseg
    if Path(cacseg.__file__).resolve().parent != (src / "cacseg").resolve():
        raise ImportError(f"cacseg imported from {cacseg.__file__}, not {src}")
    import workloads
    return workloads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    try:
        wl_mod = _import_program()
    except ImportError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)

    tracer = spans.Tracer()
    if args.trace:
        spans.instrument(tracer)
        tracer.enabled = True
    import_s = time.perf_counter() - _T0

    work = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = wl_mod.make(args.workload, args.seed)
        setup_times = []
        for r in range(SETUP_REPEATS):
            if r:
                shutil.rmtree(work / f"setup{r - 1}")
            t = time.perf_counter()
            wl.setup(work / f"setup{r}")
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)
        phantom_s = tracer.total["data.phantom"]
        phantom_slices = tracer.counters["data.phantom"]
        tracer.reset()

        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        rates, slices, rounds = [], 0, 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            t = time.perf_counter()
            n = wl.round()
            rates.append(n / (time.perf_counter() - t))
            slices += n
            rounds += 1
        wall = time.perf_counter() - start
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        tracer.enabled = False
        peak_mb = ru1.ru_maxrss / 1024.0

        results = wl.checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass

    faults = [f"{name}: {fault}" for name, fault in results if fault]
    for f in faults:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{slices} slices in {wall:.2f} s ({slices / wall:.3f} slices/s overall, "
          f"median round {statistics.median(rates):.3f}), "
          f"set-ups {[round(s, 3) for s in setup_times]} s, import {import_s:.3f} s, "
          f"{len(results)} checks, BLAS threads {BLAS_THREADS}, "
          f"round rates {[round(r, 2) for r in rates]}", file=sys.stderr)

    if args.trace:
        usage = (ru1.ru_minflt - ru0.ru_minflt, ru1.ru_stime - ru0.ru_stime)
        values = layer_values(tracer, slices, phantom_s, phantom_slices, usage)
        names = per_layer_names()
    else:
        values = {"setup_s": setup_s, "slices_per_s": statistics.median(rates),
                  "peak_rss_mb": peak_mb}
        names = end_to_end_names()
    return {"correct": not faults,
            "attempted": slices + len(results),
            "failed": len(faults),
            "metrics": {n: {"value": values[n], "unit": u} for n, u, _ in names}}


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
