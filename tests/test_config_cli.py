"""Config parsing and end-to-end CLI tests."""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cacseg import data as D
from cacseg import training as TR
from cacseg.attention import CAConfig
from cacseg.cli import main
from cacseg.config import _REGISTRY, Config, _format_value, load_config
from cacseg.errors import ConfigError
from cacseg.evaluation import dice_per_class, dice_per_slice_mean
from cacseg.losses import LossConfig
from cacseg.network import ArchConfig, build, forward
from cacseg.params import load_tns, save_checkpoint, save_tns
from cacseg.tensor import Tensor


BUILDERS = {ArchConfig: Config.arch, CAConfig: lambda cfg: cfg.arch().ca,
            LossConfig: Config.loss, TR.TrainConfig: Config.train,
            D.AugmentConfig: Config.augment, D.PhantomSpec: Config.phantom}
SECTIONS = {ArchConfig: "arch.", CAConfig: "arch.ca_", LossConfig: "loss.",
            TR.TrainConfig: "train.", D.AugmentConfig: "data.", D.PhantomSpec: "data.phantom."}
RENAMED = {(CAConfig, "reduction_ratio"): "arch.ca_reduction",
           (CAConfig, "min_mid_channels"): "arch.ca_min_mid",
           (D.AugmentConfig, "enabled"): "data.augment",
           (D.AugmentConfig, "prob"): "data.aug_prob",
           (D.AugmentConfig, "crop_sides"): "data.crop_sizes",
           (D.PhantomSpec, "rng_seed"): "data.phantom.seed"}
# key -> (dataclass, field) for every field with a plain default
FIELD_KEYS = {RENAMED.get((cls, f.name), prefix + f.name): (cls, f.name)
              for cls, prefix in SECTIONS.items() for f in dataclasses.fields(cls)
              if f.default is not dataclasses.MISSING}


FLOAT_KEYS = sorted(k for k, spec in _REGISTRY.items() if spec.kind in ("float", "floats"))


def _same(a, b) -> bool:
    """Equal type and value, field by field through nested dataclasses."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def _non_default(spec):
    """A value of spec's kind other than its default that every validate accepts."""
    if spec.choices:
        return next(c for c in spec.choices if c != spec.default)
    if spec.kind == "bool":
        return not spec.default
    if spec.kind == "int":
        return spec.default + 1
    if spec.kind == "float":
        # Adam's betas must stay below 1, so they move halfway to it
        return (1.0 + spec.default) / 2 if spec.field.startswith("adam_beta") \
            else spec.default * 1.5
    if spec.kind == "ints":
        return tuple(v + 1 for v in spec.default)
    return tuple(v * 1.5 for v in spec.default)


# one out-of-range value per range-checked key, rejected when the key is set
# or when the builder of its section validates it
OUT_OF_RANGE = {
    "arch.levels": "0", "arch.base_channels": "0", "arch.ca_reduction": "0",
    "arch.ca_min_mid": "0",
    "loss.w_focal": "-0.1", "loss.w_dice": "-0.1", "loss.focal_gamma": "-1",
    "loss.dice_gamma": "0", "loss.smooth_eps": "0", "loss.class_weights": "1,0,1,1,1,1",
    "train.epochs": "0", "train.batch_size": "0", "train.init_lr": "0",
    "train.max_lr": "1e-13", "train.first_restart_epochs": "5", "train.warmup_epochs": "-1",
    "train.restart_lr_scale": "1.5", "train.restart_period_multiplier": "0.5",
    "train.adam_beta1": "1", "train.adam_beta2": "1", "train.adam_eps": "0",
    "train.seed": "-1",
    "data.aug_prob": "1.5", "data.rot_degrees": "0,10", "data.crop_sizes": "1,400",
    "data.blur_sigma": "0,0", "data.noise_sigma": "-0.01", "data.sp_rate": "1.5",
    "data.phantom.slices": "0", "data.phantom.size": "8", "data.phantom.seed": "-1",
    **{f"data.phantom.p_{v}": "1.5" for v in D.VESSELS},
    **{f"data.phantom.px_{v}": "0,5" for v in D.VESSELS},
    "data.phantom.hu_cac": "800,130", "data.phantom.hu_bone": "1200,700",
}
SECTION_BUILDERS = (("arch.", Config.arch), ("loss.", Config.loss), ("train.", Config.train),
                    ("data.phantom.", Config.phantom), ("data.", Config.augment))


class TestConfig:
    def test_defaults_follow_recipe(self):
        cfg = Config()
        assert cfg["train.epochs"] == 100
        assert cfg["train.batch_size"] == 16
        assert cfg["train.init_lr"] == 1e-12
        assert cfg["train.max_lr"] == 1e-4
        assert cfg["train.first_restart_epochs"] == 50
        assert cfg["train.warmup_epochs"] == 5
        assert cfg["train.restart_lr_scale"] == 0.5
        assert cfg["loss.w_focal"] == 0.4 and cfg["loss.w_dice"] == 0.6

    def test_unknown_key_lists_valid_keys(self):
        cfg = Config()
        with pytest.raises(ConfigError) as err:
            cfg.set("loss.wfocal", "0.5")
        assert "valid keys" in str(err.value)
        assert "loss.w_focal" in str(err.value)

    def test_invalid_choice_lists_valid_values(self):
        cfg = Config()
        with pytest.raises(ConfigError, match="CE, Focal, FocalDice, FocalLogDice"):
            cfg.set("loss.variant", "bogus")

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.epochs = 7\ntrain.seed = 3\n")
        cfg = load_config(path, ["train.epochs=9"])
        assert cfg["train.epochs"] == 9   # override wins
        assert cfg["train.seed"] == 3     # file wins over default

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\ntrain.epochs = 2\n")
        assert load_config(path)["train.epochs"] == 2

    def test_dump_round_trip(self, tmp_path):
        cfg = load_config(None, ["train.max_lr=0.00017", "arch.levels=3",
                                 "data.crop_sizes=48,56"])
        out = tmp_path / "resolved.cfg"
        cfg.dump(out)
        back = load_config(out)
        assert back["train.max_lr"] == 0.00017
        assert back["arch.levels"] == 3
        assert back["data.crop_sizes"] == (48, 56)

    def test_builders_validate(self):
        cfg = load_config(None, ["arch.levels=0"])
        with pytest.raises(ConfigError, match="levels"):
            cfg.arch()

    @pytest.mark.parametrize("key", sorted(FIELD_KEYS))
    def test_dataclass_key_reaches_its_field(self, key):
        cls, name = FIELD_KEYS[key]
        spec = _REGISTRY[key]
        value = _non_default(spec)
        built = BUILDERS[cls](load_config(None, [f"{key}={_format_value(spec, value)}"]))
        default = BUILDERS[cls](Config())
        expected = dataclasses.replace(default, **{name: value})
        expected.validate()
        assert _same(built, expected)
        assert not _same(getattr(built, name), getattr(default, name))

    @pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_rejected(self, key):
        assert key in _REGISTRY
        build_section = next(b for prefix, b in SECTION_BUILDERS if key.startswith(prefix))
        with pytest.raises(ConfigError):
            build_section(load_config(None, [f"{key}={OUT_OF_RANGE[key]}"]))

    def test_vessel_keys_fill_phantom_dicts(self):
        p_lesion = {"lm": 0.1, "lad": 0.2, "lcx": 0.3, "rca": 0.4}
        px_range = {"lm": (1, 2), "lad": (3, 4), "lcx": (5, 6), "rca": (7, 8)}
        spec = load_config(None, [f"data.phantom.p_{v}={p}" for v, p in p_lesion.items()]
                           + [f"data.phantom.px_{v}={lo},{hi}"
                              for v, (lo, hi) in px_range.items()]).phantom()
        assert spec.p_lesion == p_lesion and spec.px_range == px_range

    def test_default_builds_equal_dataclass_defaults(self):
        cfg = Config()
        for built, default in ((cfg.arch(), ArchConfig()), (cfg.loss(), LossConfig()),
                               (cfg.train(), TR.TrainConfig()),
                               (cfg.augment(), D.AugmentConfig()),
                               (cfg.phantom(), D.PhantomSpec())):
            default.validate()
            assert _same(built, default), type(default).__name__

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        spec = _REGISTRY[key]
        raw = value if spec.kind == "float" else ",".join(
            [value] + [repr(v) for v in spec.default[1:]])
        with pytest.raises(ConfigError, match=f"{key} = .* is not a finite number"):
            load_config(None, [f"{key}={raw}"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_class_weight_rejected(self, value):
        cfg = load_config(None, [f"loss.class_weights=1,{value},1,1,1,1"])
        with pytest.raises(ConfigError, match="loss.class_weights = .* is not a finite"):
            cfg.loss()

    def test_auto_weights_from_counts(self):
        cfg = Config()
        loss = cfg.loss(pixel_counts=np.array([1000, 100, 1, 10, 10, 10]))
        assert loss.class_weights[2] == loss.class_weights.max()
        assert abs(loss.class_weights.mean() - 1.0) < 1e-12


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    rc = main(["synth", "--out", str(root),
               "--set", "data.phantom.slices=10",
               "--set", "data.phantom.size=16",
               "--set", "data.phantom.seed=13",
               "--set", "data.phantom.p_lm=1.0",
               "--set", "data.phantom.p_lad=1.0",
               "--set", "data.phantom.p_lcx=1.0",
               "--set", "data.phantom.p_rca=1.0",
               "--set", "data.phantom.px_lm=5,6",
               "--set", "data.phantom.px_lad=5,8",
               "--set", "data.phantom.px_lcx=5,8",
               "--set", "data.phantom.px_rca=5,8"])
    assert rc == 0
    return root


TINY_NET = ["--set", "arch.levels=2", "--set", "arch.base_channels=2",
            "--set", "arch.ca_reduction=4", "--set", "arch.ca_min_mid=2"]
TINY_AUG = ["--set", "data.crop_sizes=12,14"]
SHORT_TRAIN = ["--set", "train.epochs=2", "--set", "train.batch_size=5",
               "--set", "train.max_lr=1e-3", "--set", "train.first_restart_epochs=4",
               "--set", "train.warmup_epochs=1"]


class TestCli:
    def test_synth_writes_dataset_and_resolved_config(self, micro_dataset):
        ds = D.Dataset(micro_dataset)
        assert len(ds) == 10
        resolved = micro_dataset / "resolved.cfg"
        assert resolved.is_file()
        assert "data.phantom.slices = 10" in resolved.read_text()

    def test_failed_resolved_config_write_keeps_previous_file(self, micro_dataset, tmp_path,
                                                              fail_atomic_writes, capsys):
        run = tmp_path / "run"
        run.mkdir()
        resolved = run / "resolved.cfg"
        Config().dump(resolved)
        before = resolved.read_bytes()
        fail_atomic_writes()
        rc = main(["train", "--out", str(run), "--set", f"data.train_dir={micro_dataset}",
                   *TINY_NET])
        assert rc == 2
        assert capsys.readouterr().err.startswith("io error:")
        assert resolved.read_bytes() == before
        assert sorted(p.name for p in run.iterdir()) == ["resolved.cfg"]

    def test_failed_dice_report_write_keeps_previous_file(self, micro_dataset, tmp_path,
                                                          fail_atomic_writes, capsys):
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, build(load_config(None, TINY_NET[1::2]).arch(), 3).state_entries())
        ev = tmp_path / "eval"
        ev.mkdir()
        (ev / "dice.tsv").write_bytes(b"previous report\n")
        fail_atomic_writes("dice.tsv")
        rc = main(["eval", "--out", str(ev), "--set", f"eval.checkpoint={ckpt}",
                   "--set", f"data.test_dir={micro_dataset}", *TINY_NET])
        assert rc == 2
        assert capsys.readouterr().err.startswith("io error: cannot write")
        assert (ev / "dice.tsv").read_bytes() == b"previous report\n"
        assert sorted(p.name for p in ev.iterdir()) == ["dice.tsv", "resolved.cfg"]

    @pytest.mark.parametrize("cmd", ["eval", "infer"])
    def test_non_finite_model_entry_exits_2(self, cmd, micro_dataset, tmp_path, capsys):
        entries = build(load_config(None, TINY_NET[1::2]).arch(), 3).state_entries()
        entries["head.conv.bias"][2] = np.nan
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, entries)
        rc = main([cmd, "--out", str(tmp_path / "out"), "--set", f"{cmd}.checkpoint={ckpt}",
                   "--set", f"data.test_dir={micro_dataset}",
                   "--set", f"infer.input_dir={micro_dataset}", *TINY_NET])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"io error: checkpoint {ckpt} lacks model entry head.conv.bias with finite values")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("value, dtype, fault", [
        pytest.param(2.5, np.float32, "contains non-integer values", id="non-integer"),
        pytest.param(7, np.uint8, "value 7 at position (5, 9) outside 0..5", id="out-of-range"),
    ])
    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_dataset_mask_off_the_label_set_exits_1(self, cmd, value, dtype, fault,
                                                    micro_dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(micro_dataset, data)
        mask_path = data / "masks" / "slice_00003.tns"
        mask = load_tns(mask_path).astype(dtype)
        mask[5, 9] = value
        save_tns(mask_path, mask)
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, build(load_config(None, TINY_NET[1::2]).arch(), 3).state_entries())
        rc = main([cmd, "--out", str(tmp_path / "out"), "--set", f"data.train_dir={data}",
                   "--set", f"data.test_dir={data}", "--set", f"eval.checkpoint={ckpt}",
                   *SHORT_TRAIN, *TINY_NET, *TINY_AUG])
        assert rc == 1
        assert capsys.readouterr().err == f"label error: slice_00003 mask {fault}\n"

    def test_config_file_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"train.epochs = 2\n\xff\n")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: config file {bad} is not UTF-8")

    def test_train_eval_infer_pipeline(self, micro_dataset, tmp_path):
        run = tmp_path / "run"
        rc = main(["train", "--out", str(run),
                   "--set", f"data.train_dir={micro_dataset}",
                   *SHORT_TRAIN, *TINY_NET, *TINY_AUG])
        assert rc == 0
        assert (run / "metrics.tsv").is_file()
        assert (run / "best.rckp").is_file()

        ev = tmp_path / "eval"
        rc = main(["eval", "--out", str(ev),
                   "--set", f"eval.checkpoint={run / 'best.rckp'}",
                   "--set", f"data.test_dir={micro_dataset}", *TINY_NET])
        assert rc == 0
        report = (ev / "dice.tsv").read_text().splitlines()
        assert report[0].split("\t") == [f"dice_{n}" for n in D.CLASS_NAMES]
        values = [float(x) for x in report[1].split("\t")]
        assert all(0.0 <= v <= 1.0 for v in values)

        inf = tmp_path / "infer"
        rc = main(["infer", "--out", str(inf),
                   "--set", f"infer.checkpoint={run / 'best.rckp'}",
                   "--set", f"infer.input_dir={micro_dataset}",
                   "--set", "infer.limit=2", *TINY_NET])
        assert rc == 0
        assert (inf / "slice_00000.tns").is_file()
        assert (inf / "slice_00000.ppm").is_file()

    @pytest.mark.parametrize("per_slice", [False, True])
    def test_eval_report_matches_library_dice(self, micro_dataset, tmp_path, per_slice):
        store = build(load_config(None, TINY_NET[1::2]).arch(), rng_seed=3)
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, store.state_entries())
        rc = main(["eval", "--out", str(tmp_path / "eval"),
                   "--set", f"eval.checkpoint={ckpt}",
                   "--set", f"data.test_dir={micro_dataset}",
                   "--set", f"eval.per_slice={str(per_slice).lower()}", *TINY_NET])
        assert rc == 0
        ds = D.Dataset(micro_dataset)
        pairs = []
        for i in range(len(ds)):
            s = ds.sample(i)
            logits = forward(store, Tensor(D.preprocess(s)[None]), training=False)
            pairs.append((logits.data[0].argmax(axis=0), s.mask))
        if per_slice:
            expected = dice_per_slice_mean(pairs)
        else:
            preds, masks = zip(*pairs)
            expected = dice_per_class(np.stack(preds), np.stack(masks)).dice
        values = (tmp_path / "eval" / "dice.tsv").read_text().splitlines()[1]
        assert values.split("\t") == [f"{v:.6f}" for v in expected]

    def test_score_command_matches_hand_value(self, tmp_path):
        mask = np.zeros((8, 8), np.uint8)
        mask[2:4, 2:4] = 2
        hu = np.zeros((8, 8), np.float32)
        hu[2:4, 2:4] = 450.0
        save_tns(tmp_path / "mask.tns", mask)
        save_tns(tmp_path / "img.tns", hu[None])
        out = tmp_path / "score"
        rc = main(["score", "--out", str(out),
                   "--set", f"score.image={tmp_path / 'img.tns'}",
                   "--set", f"score.mask={tmp_path / 'mask.tns'}",
                   "--set", "score.pixel_area_mm2=1.0"])
        assert rc == 0
        rows = dict(line.split("\t") for line in
                    (out / "score.tsv").read_text().splitlines()[1:])
        assert float(rows["lm"]) == pytest.approx(16.0)
        assert float(rows["total"]) == pytest.approx(16.0)

    def test_score_with_nan_pixel_area_exits_1(self, tmp_path, capsys):
        save_tns(tmp_path / "mask.tns", np.zeros((8, 8), np.uint8))
        save_tns(tmp_path / "img.tns", np.zeros((1, 8, 8), np.float32))
        out = tmp_path / "score"
        rc = main(["score", "--out", str(out),
                   "--set", f"score.image={tmp_path / 'img.tns'}",
                   "--set", f"score.mask={tmp_path / 'mask.tns'}",
                   "--set", "score.pixel_area_mm2=nan"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "config error: score.pixel_area_mm2 = 'nan' is not a finite number")
        assert not (out / "score.tsv").exists()

    @pytest.mark.parametrize("value, dtype, fault", [
        pytest.param(2.5, np.float32, "contains non-integer values", id="non-integer"),
        pytest.param(7, np.uint8, "value 7 at position (3, 2) outside 0..5", id="out-of-range"),
    ])
    def test_score_mask_off_the_label_set_exits_1(self, value, dtype, fault, tmp_path, capsys):
        mask = np.zeros((8, 8), dtype)
        mask[2:4, 2:4] = 3
        mask[3, 2] = value
        save_tns(tmp_path / "mask.tns", mask)
        save_tns(tmp_path / "img.tns", np.full((1, 8, 8), 450.0, np.float32))
        rc = main(["score", "--out", str(tmp_path / "score"),
                   "--set", f"score.image={tmp_path / 'img.tns'}",
                   "--set", f"score.mask={tmp_path / 'mask.tns'}"])
        assert rc == 1
        assert capsys.readouterr().err == f"label error: mask {fault}\n"
        assert not (tmp_path / "score" / "score.tsv").exists()

    @pytest.mark.parametrize("shape", [(2, 64, 64), (64,), (1, 64, 64)])
    def test_score_mask_not_2d_exits_2(self, shape, tmp_path, capsys):
        save_tns(tmp_path / "mask.tns", np.zeros(shape, np.uint8))
        save_tns(tmp_path / "img.tns", np.full(shape, 450.0, np.float32))
        rc = main(["score", "--out", str(tmp_path / "score"),
                   "--set", f"score.image={tmp_path / 'img.tns'}",
                   "--set", f"score.mask={tmp_path / 'mask.tns'}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"dimension error: mask must be (H,W), got shape {shape}")
        assert not (tmp_path / "score" / "score.tsv").exists()

    def test_invalid_variant_exits_1(self, capsys):
        rc = main(["train", "--out", "/tmp/unused-cacseg",
                   "--set", "loss.variant=bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "FocalLogDice" in err

    def test_unknown_key_exits_1(self, capsys):
        # the data fixes one input channel and six classes: neither is a key
        for pair in ("data.bogus=1", "arch.num_classes=4", "arch.in_channels=3"):
            rc = main(["synth", "--out", "/tmp/unused-cacseg", "--set", pair])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: unknown config key") and "valid keys" in err

    @pytest.mark.parametrize("cmd, pair, message", [
        ("train", "data.crop_sizes=", "crop sides need at least one value"),
        ("train", "data.rot_degrees=", "rotation magnitudes and crop sides need"),
        ("train", "data.blur_sigma=0.5", "blur_sigma must be a (lo, hi) range of 2"),
        ("synth", "data.phantom.px_lm=5", "px_lm must be a (lo, hi) range of 2"),
        ("synth", "data.phantom.hu_cac=130", "hu_cac must be a (lo, hi) range of 2"),
    ])
    def test_wrong_length_value_list_exits_1(self, cmd, pair, message, micro_dataset,
                                             tmp_path, capsys):
        rc = main([cmd, "--out", str(tmp_path / "out"), "--set", pair,
                   "--set", f"data.train_dir={micro_dataset}", *TINY_NET])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("pair, rc, message", [
        pytest.param("train.adam_beta1=1", 1,
                     "config error: adam_beta1 must be in [0,1), got 1.0\n", id="beta1"),
        pytest.param("train.adam_beta2=1", 1,
                     "config error: adam_beta2 must be in [0,1), got 1.0\n", id="beta2"),
        pytest.param("data.blur_sigma=0,0", 1,
                     "config error: blur_sigma values must be > 0, got (0.0, 0.0)\n",
                     id="blur-zero"),
        pytest.param("data.blur_sigma=-1,-0.5", 1,
                     "config error: blur_sigma values must be > 0, got (-1.0, -0.5)\n",
                     id="blur-negative"),
        # finite as a float64, inf as the float32 step size: the first step
        # leaves every parameter non-finite
        pytest.param("train.max_lr=1e39", 2, "numeric error: Adam step 1 at lr 1.000e+39 "
                     "left parameter enc0.rica.f1.conv.weight non-finite\n", id="max_lr",
                     marks=pytest.mark.filterwarnings(
                         "ignore:overflow encountered in cast:RuntimeWarning")),
    ])
    def test_train_setting_that_cannot_train_exits_cleanly(self, pair, rc, message,
                                                           micro_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), "--set", f"data.train_dir={micro_dataset}",
                     *SHORT_TRAIN, *TINY_NET, *TINY_AUG, "--set", "train.epochs=1",
                     "--set", "train.warmup_epochs=0", "--set", pair]) == rc
        err = capsys.readouterr().err
        assert err == message and "Traceback" not in err
        assert not list(out.glob("*.rckp"))

    @pytest.mark.parametrize("value", ["48,,56", "48,", ",48", "48, ,56"])
    def test_empty_list_item_exits_1(self, value, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "out"),
                   "--set", f"data.crop_sizes={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "empty list item" in err
        with pytest.raises(ConfigError, match="empty list item"):
            load_config(None, [f"data.rot_degrees={value}"])

    def test_negative_infer_limit_exits_1(self, tmp_path, capsys):
        rc = main(["infer", "--out", str(tmp_path / "out"), "--set", "infer.limit=-3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: infer.limit must be >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd, key", [
        ("train", "train.seed"),
        ("synth", "data.phantom.seed"),
        ("gradcheck", "gradcheck.seed"),
    ])
    def test_negative_seed_exits_1(self, cmd, key, tmp_path, capsys):
        rc = main([cmd, "--out", str(tmp_path / "out"), "--set", f"{key}=-1"])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {key} must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_exits_1(self, capsys):
        rc = main(["train", "--out", "/tmp/unused-cacseg"])
        assert rc == 1
        assert "data.train_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["eval", "infer"])
    def test_missing_checkpoint_exits_1_after_arch_check(self, cmd, tmp_path, capsys):
        assert main([cmd, "--out", str(tmp_path)]) == 1
        assert f"{cmd}.checkpoint must point to an RCKP file" in capsys.readouterr().err
        assert main([cmd, "--out", str(tmp_path), "--set", "arch.levels=0"]) == 1
        assert "levels must be a positive integer" in capsys.readouterr().err

    def test_resolved_config_reproduces_run(self, micro_dataset, tmp_path):
        first = tmp_path / "first"
        args = ["train", "--out", str(first),
                "--set", f"data.train_dir={micro_dataset}",
                *SHORT_TRAIN, *TINY_NET, *TINY_AUG]
        assert main(args) == 0
        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "resolved.cfg"),
                     "--out", str(second)]) == 0
        assert ((first / "metrics.tsv").read_bytes()
                == (second / "metrics.tsv").read_bytes())
        assert ((first / "last.rckp").read_bytes()
                == (second / "last.rckp").read_bytes())

    def test_ce_run_records_the_unit_weights_it_trains_with(self, micro_dataset, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--out", str(first), "--set", "loss.variant=CE",
                     "--set", f"data.train_dir={micro_dataset}",
                     *SHORT_TRAIN, *TINY_NET, *TINY_AUG]) == 0
        lines = (first / "resolved.cfg").read_text().splitlines()
        assert "loss.class_weights = 1.0,1.0,1.0,1.0,1.0,1.0" in lines
        assert "loss.focal_gamma = 0.0" in lines
        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "resolved.cfg"),
                     "--out", str(second)]) == 0
        assert ((first / "last.rckp").read_bytes()
                == (second / "last.rckp").read_bytes())

    @pytest.mark.parametrize("cmd", ["eval", "infer"])
    def test_zero_batch_size_exits_1(self, cmd, micro_dataset, tmp_path, capsys):
        store = build(load_config(None, TINY_NET[1::2]).arch(), rng_seed=5)
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, store.state_entries())
        rc = main([cmd, "--out", str(tmp_path / "out"), "--set", f"{cmd}.checkpoint={ckpt}",
                   "--set", f"data.test_dir={micro_dataset}",
                   "--set", f"infer.input_dir={micro_dataset}",
                   "--set", "train.batch_size=0", *TINY_NET])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: epochs and batch_size")

    def test_infer_exports_do_not_depend_on_the_batch(self, micro_dataset, tmp_path):
        store = build(load_config(None, TINY_NET[1::2]).arch(), rng_seed=4)
        rng = np.random.default_rng(4)
        for bn, m in store.moments_items():    # a fold that is not the identity
            m.mean[:] = rng.standard_normal(m.mean.shape)
            m.var[:] = rng.uniform(0.2, 3.0, m.var.shape)
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, store.state_entries())
        exports = {}
        for batch in (1, 3, 16):
            out = tmp_path / f"infer-{batch}"
            assert main(["infer", "--out", str(out), "--set", f"infer.checkpoint={ckpt}",
                         "--set", f"infer.input_dir={micro_dataset}",
                         "--set", "infer.limit=5", "--set", f"train.batch_size={batch}",
                         *TINY_NET]) == 0
            exports[batch] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                              if p.suffix in (".tns", ".ppm")}
        assert len(exports[1]) == 10
        assert exports[1] == exports[3] == exports[16]

    def test_mixed_slice_sizes_match_batch_1(self, mixed_dataset, tmp_path):
        store = build(load_config(None, TINY_NET[1::2]).arch(), rng_seed=6)
        ckpt = tmp_path / "net.rckp"
        save_checkpoint(ckpt, store.state_entries())
        outputs = {}
        for batch in (1, 16):
            inf = tmp_path / f"infer-{batch}"
            assert main(["infer", "--out", str(inf), "--set", f"infer.checkpoint={ckpt}",
                         "--set", f"infer.input_dir={mixed_dataset}",
                         "--set", f"train.batch_size={batch}", *TINY_NET]) == 0
            outputs[batch] = {p.name: p.read_bytes() for p in sorted(inf.iterdir())
                              if p.suffix in (".tns", ".ppm")}
            for ps in ("true", "false"):
                ev = tmp_path / f"eval-{batch}-{ps}"
                assert main(["eval", "--out", str(ev), "--set", f"eval.checkpoint={ckpt}",
                             "--set", f"data.test_dir={mixed_dataset}",
                             "--set", f"eval.per_slice={ps}",
                             "--set", f"train.batch_size={batch}", *TINY_NET]) == 0
                outputs[batch][f"dice-{ps}"] = (ev / "dice.tsv").read_bytes()
        assert len(outputs[1]) == 12
        assert outputs[1] == outputs[16]

    def test_train_batch_of_mixed_sizes_exits_2(self, mixed_dataset, tmp_path, capsys):
        argv = ["--set", f"data.train_dir={mixed_dataset}", "--set", "data.augment=false",
                "--set", "train.epochs=1", *TINY_NET]
        assert main(["train", "--out", str(tmp_path / "b5"), "--set", "train.batch_size=5",
                     *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dimension error: a training batch needs one slice size")
        assert main(["train", "--out", str(tmp_path / "b1"), "--set", "train.batch_size=1",
                     *argv]) == 0


def test_program_modules_do_not_load_scipy():
    # scipy is a test-only dependency (pyproject's `test` extra)
    code = ("import sys, cacseg.cli, cacseg.training, cacseg.evaluation\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_params_imports_first_in_a_fresh_interpreter():
    # params imports tensor, and tensor re-exports two of params' names at
    # its end for perfbench; both must resolve whichever module comes first
    code = ("import cacseg.params, cacseg.tensor\n"
            "print(cacseg.tensor.load_tns is cacseg.params.load_tns,\n"
            "      cacseg.tensor.save_tns is cacseg.params.save_tns)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "True True"
