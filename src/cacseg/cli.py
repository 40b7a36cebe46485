"""Operator surface: dataset synthesis, training, evaluation, inference,
gradient checking, and per-vessel calcium scoring.

Exit codes: 0 success, 1 validation error (bad config, bad labels),
2 runtime failure. Every run writes a resolved.cfg capturing all
effective values; re-running from it reproduces results bit-exactly on
the same platform.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import data as D
from . import gradcheck as G
from . import training as TR
from .config import RESOLVED_NAME, Config, load_config
from .errors import ConfigError, KitError, LabelError
from .evaluation import (
    agatston_per_lesion,
    dice_global,
    dice_per_slice_mean,
    dice_report_tsv,
    export_prediction,
)
from .losses import resolve_variant
# eval forwards run in training.predict; forward stays importable here
# because perfbench's per-layer tracer wraps it at this module.
from .network import forward, load_model  # noqa: F401
from .params import load_tns, write_atomic


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset(cfg: Config, key: str, fallback: str = "") -> D.Dataset:
    path = cfg[key] or (fallback and cfg[fallback])
    if not path:
        raise ConfigError(f"{key} must point to a dataset directory")
    return D.Dataset(path)


def cmd_synth(cfg: Config, args) -> int:
    out = _out_dir(args)
    spec = cfg.phantom()
    manifest = D.generate_phantom(spec, out)
    cfg.dump(out / RESOLVED_NAME)
    print(f"wrote {spec.slices} slices of size {spec.size} to {out}")
    print(f"manifest: {manifest}")
    return 0


def cmd_train(cfg: Config, args) -> int:
    out = _out_dir(args)
    arch = cfg.arch()
    train_cfg = cfg.train()
    train_ds = _dataset(cfg, "data.train_dir")
    val_ds = _dataset(cfg, "data.val_dir", fallback="data.train_dir")
    loss_cfg = cfg.loss(pixel_counts=train_ds.pixel_counts())
    cfg.record_loss(resolve_variant(loss_cfg))
    aug_cfg = cfg.augment()
    resume = cfg["train.resume"] or None
    cfg.dump(out / RESOLVED_NAME)
    result = TR.train(arch, train_ds, val_ds, loss_cfg, train_cfg, out,
                      aug_cfg=aug_cfg, resume_from=resume)
    print(f"metrics: {result.metrics_path}")
    print(f"best epoch {result.best_epoch} "
          f"(mean lesion dice {result.best_score:.4f}): {result.best_checkpoint}")
    print(f"last checkpoint: {result.last_checkpoint}")
    return 0


def _checkpoint(cfg: Config, key: str):
    """The parameter store of the RCKP file at cfg[key], built for cfg.arch()."""
    arch = cfg.arch()
    if not cfg[key]:
        raise ConfigError(f"{key} must point to an RCKP file")
    store, _ = load_model(cfg[key], arch)
    return store


def cmd_eval(cfg: Config, args) -> int:
    out = _out_dir(args)
    store = _checkpoint(cfg, "eval.checkpoint")
    test_ds = _dataset(cfg, "data.test_dir")
    batch = cfg.train().batch_size
    cfg.dump(out / RESOLVED_NAME)
    aggregate, mode = ((dice_per_slice_mean, "per-slice mean") if cfg["eval.per_slice"]
                       else (dice_global, "global counts"))
    dice = aggregate((logits.argmax(axis=0), s.mask)
                     for logits, s in TR.predict(store, test_ds, batch))
    body = dice_report_tsv(dice)
    path = out / "dice.tsv"
    write_atomic(path, body.encode("utf-8"))
    print(f"dice report ({mode}): {path}")
    print(body.strip())
    return 0


def cmd_infer(cfg: Config, args) -> int:
    if cfg["infer.limit"] < 0:
        raise ConfigError(f"infer.limit must be >= 0 (0 = all slices), got {cfg['infer.limit']}")
    out = _out_dir(args)
    store = _checkpoint(cfg, "infer.checkpoint")
    ds = _dataset(cfg, "infer.input_dir")
    count = min(cfg["infer.limit"] or len(ds), len(ds))
    batch = cfg.train().batch_size
    cfg.dump(out / RESOLVED_NAME)
    for logits, s in TR.predict(store, ds, batch, count):
        export_prediction(logits, out / s.slice_id, hu_image=s.image)
    print(f"wrote {count} predictions to {out}")
    return 0


def cmd_gradcheck(cfg: Config, args) -> int:
    out = _out_dir(args) if args.out else None
    results, elapsed = G.run_all(seed=cfg["gradcheck.seed"])
    table = G.format_table(results)
    print(table)
    print(f"elapsed: {elapsed:.1f}s")
    if out is not None:
        cfg.dump(out / RESOLVED_NAME)
        rows = ["op\tmax_rel_err\ttol\tchecked\texcluded\tstatus"]
        rows += [f"{r.name}\t{r.max_rel:.6e}\t{r.tol:g}\t{r.checked}\t{r.excluded}\t"
                 f"{'PASS' if r.passed else 'FAIL'}" for r in results]
        write_atomic(out / "gradcheck.tsv", ("\n".join(rows) + "\n").encode("utf-8"))
    if all(r.passed for r in results):
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 2


def cmd_score(cfg: Config, args) -> int:
    out = _out_dir(args)
    if not cfg["score.image"] or not cfg["score.mask"]:
        raise ConfigError("score.image and score.mask must point to TNS1 files")
    hu = load_tns(cfg["score.image"])
    mask = load_tns(cfg["score.mask"])
    report = agatston_per_lesion(mask, hu, cfg["score.pixel_area_mm2"])
    cfg.dump(out / RESOLVED_NAME)
    lines = ["vessel\tscore"]
    lines += [f"{name}\t{value:.4f}" for name, value in report.rows()]
    body = "\n".join(lines) + "\n"
    write_atomic(out / "score.tsv", body.encode("utf-8"))
    print(body.strip())
    return 0


_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic phantom dataset"),
    "train": (cmd_train, "train a model and log metrics"),
    "eval": (cmd_eval, "compute the per-class Dice report on a test set"),
    "infer": (cmd_infer, "export predicted masks and overlays"),
    "gradcheck": (cmd_gradcheck, "verify every op against finite differences"),
    "score": (cmd_score, "compute the per-vessel calcium score for one slice"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacseg",
        description="Per-vessel coronary calcium segmentation kit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        p.add_argument("--out", default=None if name == "gradcheck" else "out",
                       help="output directory")
    return parser


def _run(args) -> int:
    try:
        cfg = load_config(args.config, args.overrides)
        return _COMMANDS[args.command][0](cfg, args)
    except (ConfigError, LabelError) as e:
        print(str(e), file=sys.stderr)
        return 1
    except KitError as e:
        print(str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command. Warnings raised while it runs (numpy's overflow
    warnings, say) are held until it returns and shown only if it
    succeeds, so a failed command's stderr is its one prefixed line."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        rc = _run(args)
    if rc == 0:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    return rc


if __name__ == "__main__":
    sys.exit(main())
