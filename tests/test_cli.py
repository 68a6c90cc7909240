import json
import os
import pathlib
import struct
import subprocess
import sys

import pytest

import ldrpmnet
from ldrpmnet import cli
from ldrpmnet import gradcheck as gradcheck_module
from ldrpmnet import model as model_module
from ldrpmnet.cli import cli_dispatch
from ldrpmnet.config import model_config_to_text, parse_config
from ldrpmnet.gradcheck import SUITE_NAMES, standard_suite
from ldrpmnet.model import CHECKPOINT_MAGIC, ModelConfig, build, save_checkpoint

SMALL_CONFIG = """\
input_length = 1024
stem_channels = 4
stage_channels = 8,8
kernel_sizes = 3,5
pool_strides = 4,4
model_dim = 8
depth = 1
ffn_expansion = 2
heads = 2
epochs = 1
"""


def _write_config(tmp_path):
    path = os.path.join(tmp_path, "small.cfg")
    with open(path, "w") as f:
        f.write(SMALL_CONFIG)
    return path


def _gen(tmp_path, name="data", seed=0):
    out = os.path.join(tmp_path, name)
    assert cli_dispatch(["gen-data", "--seed", str(seed), "--out", out,
                         "--input-length", "1024"]) == 0
    return out


@pytest.fixture(scope="module")
def shared_data(tmp_path_factory):
    """A 1024-sample-length dataset for tests that only read it."""
    return _gen(tmp_path_factory.mktemp("shared"))


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli_dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert cli_dispatch(["gen-data"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_bad_model_choice(self, capsys, tmp_path):
        code = cli_dispatch(["count", "--model", "resnet"])
        assert code == 1

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["-m", "ldrpmnet", "count", "--model", "cnt"], 0, "stdout", "cnt: Params"),
        (["-m", "ldrpmnet.cli"], 1, "stderr", "usage")],
        ids=["package", "cli-module"])
    def test_python_m_runs_the_cli(self, argv, code, stream, text):
        env = dict(os.environ, PYTHONPATH=str(
            pathlib.Path(ldrpmnet.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert text in getattr(proc, stream)


class TestCount:
    def test_output_format(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        assert cli_dispatch(["count", "--model", "ld-rpmnet",
                             "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "ld-rpmnet: Params" in out and "M, FLOPs" in out

    def test_cnt_reports_more_than_ld(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)

        def totals(model):
            assert cli_dispatch(["count", "--model", model,
                                 "--config", cfg]) == 0
            line = [l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("TOTAL")][0]
            return int(line.split()[1])

        assert totals("cnt") > totals("ld-rpmnet")

    def test_config_without_kernel_sizes_for_two_stages(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("stage_channels = 8,64\nmodel_dim = 64\n")
        assert cli_dispatch(["count", "--model", "ld-rpmnet",
                             "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "stage1.depthwise_k7" in out and "stage2" not in out

    @pytest.mark.parametrize("key, value", [
        ("stem_channels", "0"), ("stem_kernel", "0"), ("stem_stride", "0"),
        ("pool_strides", "0,4"), ("ffn_expansion", "0"), ("heads", "0")])
    def test_zero_sized_structure_is_runtime_error(self, tmp_path, capsys,
                                                   key, value):
        lines = [line for line in SMALL_CONFIG.splitlines()
                 if not line.startswith(key + " ")]
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w") as f:
            f.write("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert cli_dispatch(["count", "--model", "cnt", "--config", bad]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "stage_channels = ,\nkernel_sizes = 3\n", "stage_channels = 8,,64\n",
        "kernel_sizes = 3,,5\n"])
    def test_empty_list_item_is_runtime_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli_dispatch(["count", "--model", "ld-rpmnet",
                             "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: line 1: bad value" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["count", "train"])
    def test_config_variant_other_than_the_model_is_runtime_error(
            self, tmp_path, capsys, command):
        cfg = os.path.join(tmp_path, "cnt.cfg")
        with open(cfg, "w") as f:
            f.write(SMALL_CONFIG + "conv_kind = standard\nattn_kind = mhsa\n")
        run = tmp_path / "run"
        argv = [command, "--model", "ld-rpmnet", "--config", cfg]
        if command == "train":
            argv += ["--data", str(tmp_path), "--out", str(run)]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "('standard', 'mhsa')" in err
        assert not run.exists()
        assert cli_dispatch(["count", "--model", "cnt", "--config", cfg]) == 0


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = _gen(tmp_path)
        assert os.path.exists(os.path.join(out, "manifest.csv"))
        with open(os.path.join(out, "run_manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 0
        assert "845" in capsys.readouterr().out

    def test_refuses_nonempty_dir_without_force(self, tmp_path, capsys):
        out = _gen(tmp_path)
        assert cli_dispatch(["gen-data", "--seed", "0", "--out", out,
                             "--input-length", "1024"]) == 2
        assert "--force" in capsys.readouterr().err
        assert cli_dispatch(["gen-data", "--seed", "0", "--out", out,
                             "--input-length", "1024", "--force"]) == 0

    def test_byte_identical_across_runs(self, tmp_path):
        a = _gen(tmp_path, "a")
        b = _gen(tmp_path, "b")
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for name in names:
            if name == "run_manifest.json":   # carries wall-clock timestamps
                continue
            with open(os.path.join(a, name), "rb") as fa, \
                 open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        data = _gen(tmp_path)
        cfg = _write_config(tmp_path)
        run = os.path.join(tmp_path, "run")
        assert cli_dispatch(["train", "--data", data, "--model", "ld-rpmnet",
                             "--config", cfg, "--out", run]) == 0
        for name in ("trace.csv", "metrics.csv", "confusion.csv",
                     "weights.bin", "run_manifest.json"):
            assert os.path.exists(os.path.join(run, name)), name
        out = capsys.readouterr().out
        assert "test accuracy" in out

        weights = os.path.join(run, "weights.bin")
        assert cli_dispatch(["eval", "--weights", weights,
                             "--data", data]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy,precision,recall,f1,inference_s")
        assert "confusion matrix" in out

    def test_tampered_checkpoint_is_runtime_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        weights = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(build(ModelConfig(input_length=1024, stem=(4, 7, 2),
                                          stages=((8, (3, 5), 4),),
                                          encoder=(1, 8, 2, 2))), weights)
        with open(weights, "rb") as f:
            blob = f.read()
        with open(weights, "wb") as f:
            f.write(blob.replace(b"stem.weight", b"stem.wEight"))
        assert cli_dispatch(["eval", "--weights", weights, "--data", data]) == 2
        assert "stem.wEight" in capsys.readouterr().err

    def test_checkpoint_with_fewer_classes_is_runtime_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        weights = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(build(ModelConfig(input_length=1024, stem=(4, 7, 2),
                                          stages=((8, (3, 5), 4),),
                                          encoder=(1, 8, 2, 2), num_classes=5)),
                        weights)
        assert cli_dispatch(["eval", "--weights", weights, "--data", data]) == 2
        err = capsys.readouterr().err
        assert "classes 1..5" in err and "Traceback" not in err

    def test_adam_beta_out_of_range_is_runtime_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w") as f:
            f.write(SMALL_CONFIG + "beta2 = 1.0\n")
        run = os.path.join(tmp_path, "run")
        assert cli_dispatch(["train", "--data", data, "--model", "ld-rpmnet",
                             "--config", bad, "--out", run]) == 2
        assert "beta2 must be in [0, 1)" in capsys.readouterr().err
        assert not os.path.exists(run)

    def test_length_mismatch_is_runtime_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        run = os.path.join(tmp_path, "run")
        # default config expects input_length 8192, dataset holds 1024
        assert cli_dispatch(["train", "--data", data, "--model", "ld-rpmnet",
                             "--out", run]) == 2
        assert "input_length" in capsys.readouterr().err

    def test_header_only_manifest_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.csv").write_text("id,class,split,file\n")
        cfg = _write_config(tmp_path)
        assert cli_dispatch(["train", "--data", str(data), "--model", "ld-rpmnet",
                             "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no samples" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_manifest_without_val_rows_is_runtime_error(self, tmp_path,
                                                         capsys, shared_data):
        data = tmp_path / "data"
        data.mkdir()
        for name in os.listdir(shared_data):
            (data / name).write_bytes((pathlib.Path(shared_data) / name).read_bytes())
        manifest = data / "manifest.csv"
        manifest.write_text(manifest.read_text().replace(",val,", ",train,"))
        cfg = _write_config(tmp_path)
        assert cli_dispatch(["train", "--data", str(data), "--model", "ld-rpmnet",
                             "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no val split" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("row, message", [
        ("0,three,train,wav00000.bin", "class id 'three' is not an integer"),
        ("0,1,train,", "file '' is not a file name"),
        ("0,1,train,../manifest.csv", "file '../manifest.csv' is not a file name")],
        ids=["class-id", "empty-file", "parent-dir"])
    def test_bad_manifest_row_is_runtime_error(self, tmp_path, capsys, row,
                                               message):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.csv").write_text(f"id,class,split,file\n{row}\n")
        cfg = _write_config(tmp_path)
        assert cli_dispatch(["train", "--data", str(data), "--model", "ld-rpmnet",
                             "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_class_count_other_than_the_corpus_is_runtime_error(
            self, tmp_path, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise AssertionError("a network was built for the wrong class count")

        monkeypatch.setattr(cli, "build_preset", fail)
        monkeypatch.setattr(cli, "ablate", fail)
        data = _gen(tmp_path)
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w") as f:
            f.write(SMALL_CONFIG + "num_classes = 12\n")
        argv = [command, "--data", data, "--config", bad,
                "--out", os.path.join(tmp_path, "run")]
        if command == "train":
            argv += ["--model", "ld-rpmnet"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "num_classes = 12" in err and "10 classes" in err

    def test_config_typo_is_runtime_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w") as f:
            f.write("batch_sise = 16\n")
        run = os.path.join(tmp_path, "run")
        assert cli_dispatch(["train", "--data", data, "--model", "ld-rpmnet",
                             "--config", bad, "--out", run]) == 2
        assert "batch_sise" in capsys.readouterr().err


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["gen-data", "--seed", "-1", "--out", "{out}", "--input-length", "1024"],
        ["train", "--data", "{data}", "--model", "ld-rpmnet", "--config", "{cfg}",
         "--seed", "-1", "--out", "{out}"],
        ["ablate", "--data", "{data}", "--config", "{cfg}",
         "--seed", "18446744073709551616", "--out", "{out}"],
        ["train", "--data", "{data}", "--model", "ld-rpmnet",
         "--config", "{negative_cfg}", "--out", "{out}"],
        ["gradcheck", "--seed", "-1"]],
        ids=["gen-data", "train", "ablate", "config", "gradcheck"])
    def test_seed_outside_the_range_is_runtime_error(self, tmp_path, capsys,
                                                     shared_data, argv):
        cfg = _write_config(tmp_path)
        negative_cfg = tmp_path / "negative.cfg"
        negative_cfg.write_text(SMALL_CONFIG + "seed = -1\n")
        out = tmp_path / "out"
        args = [a.format(out=out, data=shared_data, cfg=cfg,
                         negative_cfg=negative_cfg) for a in argv]
        assert cli_dispatch(args) == 2
        err = capsys.readouterr().err
        assert "error: seed must be an integer in [0, 2**64)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_ablate_takes_the_config_seed_without_the_flag(
            self, tmp_path, monkeypatch, shared_data):
        seeds = []

        def fake_ablate(samples, train_config, base=None):
            seeds.append(train_config.seed)
            return []

        monkeypatch.setattr(cli, "ablate", fake_ablate)
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(SMALL_CONFIG + "seed = 5\n")
        out = tmp_path / "run"
        assert cli_dispatch(["ablate", "--data", shared_data, "--config", str(cfg),
                             "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert seeds == [5] and manifest["seed"] == 5


class TestOsErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--weights", "{dir}", "--data", "{dir}"],
        ["gen-data", "--out", "{file}"],
        ["count", "--model", "cnt", "--config", "{dir}"]],
        ids=["eval-directory", "gen-data-into-file", "count-directory"])
    def test_os_error_is_runtime_error(self, tmp_path, capsys, argv):
        file = tmp_path / "file.txt"
        file.write_text("not a directory\n")
        args = [a.format(dir=tmp_path, file=file) for a in argv]
        assert cli_dispatch(args) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestOutOfMemory:
    # widths whose network would take 29.1 TiB; `build` raises as numpy's
    # allocation would, so nothing is allocated
    HUGE = "stage_channels = 16,32,2000000\nmodel_dim = 2000000\n"

    @pytest.fixture(autouse=True)
    def no_memory(self, monkeypatch):
        def fail(config, seed=0):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(model_module, "build", fail)

    def _assert_runtime_error(self, argv, capsys):
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate 29.1 TiB" in err
        assert "Traceback" not in err

    def test_count(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(self.HUGE)
        self._assert_runtime_error(
            ["count", "--model", "ld-rpmnet", "--config", str(cfg)], capsys)

    def test_eval_of_a_checkpoint_declaring_huge_widths(self, tmp_path, capsys):
        # the loader compares the declared parameter count with the arrays
        # present before it builds, so `build` is never reached
        text = model_config_to_text(parse_config(self.HUGE)[0]).encode()
        weights = tmp_path / "weights.bin"
        weights.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(text))
                            + text + struct.pack("<I", 0))
        assert cli_dispatch(["eval", "--weights", str(weights),
                             "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: checkpoint config declares " in err
        assert "parameters, the file holds 0" in err and "Traceback" not in err


class TestGradcheck:
    def test_single_op(self, capsys):
        full = standard_suite(seed=0)["gelu"]
        assert cli_dispatch(["gradcheck", "--op", "gelu"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"{'gelu':<20} max_rel_error {full:.3e}  ok"]

    def test_op_offers_every_check_in_table_order(self, capsys):
        assert cli_dispatch(["gradcheck", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "one of: " + ", ".join(SUITE_NAMES) + " --seed" in help_text

    def test_unknown_op(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("gradcheck ran for an unknown op")

        monkeypatch.setattr(gradcheck_module, "gradcheck", fail)
        assert cli_dispatch(["gradcheck", "--op", "quux"]) == 1
        assert "invalid choice: 'quux'" in capsys.readouterr().err
