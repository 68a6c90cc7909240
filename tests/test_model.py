import ast
import hashlib
import inspect
import os
import platform
import struct
import textwrap
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldrpmnet import model
from ldrpmnet.cli import cli_dispatch
from ldrpmnet import tensor as T
from ldrpmnet.mdsc import MdscConfig
from ldrpmnet.model import (REDUCED_CONFIG, ModelConfig, Network,
                            StandardMultiScaleBlock, build, build_preset, load_checkpoint,
                            save_checkpoint, standard_multiscale_param_count)
from ldrpmnet.tensor import Tensor

SMALL = ModelConfig(input_length=256, stem=(4, 7, 2),
                    stages=((8, (3, 5), 2), (8, (3, 5), 2)),
                    encoder=(1, 8, 2, 2))


class TestBuild:
    def test_deterministic_build(self):
        a = build(SMALL, seed=5)
        b = build(SMALL, seed=5)
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build(SMALL, seed=1)
        b = build(SMALL, seed=2)
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()))

    def test_cnt_has_more_params_than_full_variant(self):
        cnt = build_preset("cnt", base=SMALL)
        full = build_preset("ld-rpmnet", base=SMALL)
        assert cnt.param_count() > full.param_count()

    def test_zero_input_finite_logits(self):
        net = build(SMALL, seed=0)
        out = net.forward(Tensor(np.zeros((3, 1, 256))), mode="eval")
        assert out.shape == (3, 10)
        assert np.isfinite(out.data).all()

    def test_width_mismatch_rejected(self):
        with pytest.raises(T.ConfigurationError, match="model_dim"):
            ModelConfig(stages=((32, (3, 5, 7), 4),), encoder=(1, 64, 2, 4),
                        input_length=1024)


class TestForward:
    def test_wrong_length_rejected(self):
        net = build(SMALL, seed=0)
        with pytest.raises(T.DimensionError, match="length"):
            net.forward(Tensor(np.zeros((1, 1, 128))))

    def test_eval_forward_pure(self):
        rng = np.random.Generator(np.random.Philox(key=50))
        net = build(SMALL, seed=0)
        x = Tensor(rng.standard_normal((2, 1, 256)))
        with T.no_grad():
            a = net.forward(x, mode="eval").data
            b = net.forward(x, mode="eval").data
        assert np.array_equal(a, b)

    def test_logit_shift_leaves_argmax(self):
        rng = np.random.Generator(np.random.Philox(key=51))
        net = build(SMALL, seed=0)
        with T.no_grad():
            logits = net.forward(Tensor(rng.standard_normal((2, 1, 256)))).data
        assert np.array_equal(logits.argmax(1), (logits + 11.5).argmax(1))


class TestEvalBlocks:
    """No-grad eval-mode forwards in 2-sample blocks over batches of 5, run on
    one thread per usable CPU, which the pool tests set by patching
    os.sched_getaffinity."""

    @pytest.fixture(autouse=True)
    def two_sample_blocks(self, monkeypatch):
        monkeypatch.setattr(model, "_EVAL_BLOCK", 2 * SMALL.input_length)

    def _batch(self, key):
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.standard_normal((5, 1, SMALL.input_length))

    def test_blocks_equal_per_sample_forwards(self):
        net = build(SMALL, seed=0)
        x = self._batch(60)
        with T.no_grad():
            batched = net.forward(Tensor(x)).data
            single = np.concatenate([net.forward(Tensor(x[i:i + 1])).data
                                     for i in range(len(x))])
        npt.assert_allclose(batched, single, rtol=0, atol=1e-12)

    def test_train_mode_is_one_pass(self):
        # running statistics start at mean 0; one update with momentum 0.1
        net = build(SMALL, seed=0)
        x = Tensor(self._batch(61))
        with T.no_grad():
            stem = net.stem.forward(x).data
            net.forward(x, mode="train")
        npt.assert_allclose(net.stem_bn.state.mean,
                            0.1 * stem.mean(axis=(0, 2)), rtol=0, atol=1e-12)

    def test_input_gradient_kept(self):
        net = build(SMALL, seed=0)
        x = Tensor(self._batch(62), requires_grad=True)
        T.backward(T.tsum(net.forward(x, mode="eval")))
        assert x.grad is not None
        assert (np.abs(x.grad).sum(axis=(1, 2)) > 0).all()

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                            raising=False)

    @staticmethod
    def _spy_blocks(monkeypatch):
        """Record (thread id, grad mode, output needs grad) for each block."""
        seen = []
        logits = Network._logits

        def spy(net, x, mode):
            out = logits(net, x, mode)
            seen.append((threading.get_ident(), T.grad_enabled(),
                         out.requires_grad))
            return out

        monkeypatch.setattr(Network, "_logits", spy)
        return seen

    def test_pooled_logits_bit_identical_to_one_thread(self, monkeypatch):
        net = build(SMALL, seed=0)
        for dtype in (np.float64, np.float32):
            x = Tensor(self._batch(65).astype(dtype))
            logits = []
            for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
                self._cpus(monkeypatch, cpus)
                with T.no_grad():
                    logits.append(net.forward(x).data)
            assert logits[0].dtype == dtype
            for pooled in logits[1:]:
                assert np.array_equal(pooled, logits[0])

    def test_pool_workers_record_no_graph(self, monkeypatch):
        self._cpus(monkeypatch, {0, 1})
        seen = self._spy_blocks(monkeypatch)
        net = build(SMALL, seed=0)
        assert all(p.requires_grad for _, p in net.parameters())
        with T.no_grad():
            out = net.forward(Tensor(self._batch(66)))
        assert T.tape_len() == 0 and not out.requires_grad
        assert len(seen) == 3
        assert {ident for ident, _, _ in seen} != {threading.get_ident()}
        assert not any(grad or needs for _, grad, needs in seen)

    @pytest.mark.parametrize("cpus, batch, grad", [
        ({0}, 5, False),               # one usable CPU
        ({0, 1}, 1, False),            # one block
        ({0, 1}, 5, True),             # grad mode records one pass here
    ])
    def test_no_pool_without_two_cpus_two_blocks_and_no_grad(
            self, monkeypatch, cpus, batch, grad):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a thread pool")

        self._cpus(monkeypatch, cpus)
        monkeypatch.setattr(model, "ThreadPoolExecutor", no_pool)
        seen = self._spy_blocks(monkeypatch)
        net = build(SMALL, seed=0)
        x = Tensor(self._batch(67)[:batch])
        if grad:
            out = net.forward(x)
        else:
            with T.no_grad():
                out = net.forward(x)
        assert out.shape == (batch, SMALL.num_classes)
        assert len(seen) == (3 if batch == 5 and not grad else 1)
        assert {ident for ident, _, _ in seen} == {threading.get_ident()}
        assert all(needs == grad for _, _, needs in seen)

    def test_no_pool_thread_outlives_the_call(self, monkeypatch):
        self._cpus(monkeypatch, {0, 1})
        net = build(SMALL, seed=0)
        before = threading.active_count()
        with T.no_grad():
            net.forward(Tensor(self._batch(68)))
        assert threading.active_count() == before

    def test_pool_block_error_raised_in_caller(self, monkeypatch):
        logits = Network._logits
        caller = threading.get_ident()
        x = self._batch(69)

        def failing(net, block, mode):
            assert threading.get_ident() != caller
            if block.data[0, 0, 0] == x[2, 0, 0]:
                raise FloatingPointError("block 2 failed")
            return logits(net, block, mode)

        self._cpus(monkeypatch, {0, 1})
        monkeypatch.setattr(Network, "_logits", failing)
        with T.no_grad(), pytest.raises(FloatingPointError, match="block 2"):
            build(SMALL, seed=0).forward(Tensor(x))


class TestDtypes:
    """Eval computes in the input's dtype; train mode computes in float64."""

    # SHA-256 of the default-config seed-0 logits of `_batch()` in float64,
    # as computed before the engine kept float32 input in float32
    FLOAT64_LOGITS = {
        "ld-rpmnet": "0897d621a6b875834bcf842e2a00d797bd84bcec5b6f1ab58cf2ea6162b73a30",
        "cnt": "98a475742619914910d9f4e32909a7ae8c6a3421b2d029b2834ff4c7aaaabee7",
    }

    @staticmethod
    def _batch():
        rng = np.random.Generator(np.random.Philox(key=70))
        return 0.3 * rng.standard_normal((5, 1, ModelConfig().input_length))

    @staticmethod
    def _logits(net, x):
        with T.no_grad():
            return net.forward(Tensor(x)).data

    @pytest.mark.parametrize("preset", sorted(FLOAT64_LOGITS))
    def test_float64_logits_unchanged(self, preset):
        logits = self._logits(build_preset(preset, seed=0), self._batch())
        assert logits.dtype == np.float64
        assert hashlib.sha256(logits.tobytes()).hexdigest() == self.FLOAT64_LOGITS[preset]

    @pytest.mark.parametrize("preset", sorted(FLOAT64_LOGITS))
    def test_float32_logits_near_float64(self, preset):
        net = build_preset(preset, seed=0)
        x = self._batch().astype(np.float32)
        got = self._logits(net, x)
        expected = self._logits(net, x.astype(np.float64))
        assert got.dtype == np.float32
        assert np.abs(got - expected).max() <= 1e-5 * np.abs(expected).max()
        assert np.array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    def test_train_mode_casts_float32_input_to_float64(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        x = rng.standard_normal((4, 1, SMALL.input_length)).astype(np.float32)
        runs = []
        for dtype in (np.float32, np.float64):
            net = build(SMALL, seed=0)
            loss = T.cross_entropy(net.forward(Tensor(x.astype(dtype)), mode="train"),
                                   [1, 2, 3, 4])
            loss.backward()
            runs.append([loss.data] + [p.grad for _, p in net.parameters()]
                        + [b for _, b in net.buffers()])
        for got, expected in zip(*runs):
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="needs glibc's fixed malloc thresholds")
def test_eval_forward_reuses_memory_without_faults():
    # unblocked, the stage-0 branch concat of 256 samples is 50 MB, above
    # the 32-MiB mmap threshold, and is faulted in on every call
    import resource

    rng = np.random.Generator(np.random.Philox(key=64))
    net = build_preset("ld-rpmnet", base=REDUCED_CONFIG, seed=0)
    x = Tensor(rng.standard_normal((256, 1, REDUCED_CONFIG.input_length)))
    with T.no_grad():
        net.forward(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        net.forward(x)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults


class TestStandardBlock:
    def test_interface_parity_with_mdsc(self):
        from ldrpmnet.mdsc import MdscBlock

        cfg = MdscConfig(3, 5, (3, 5))
        rng = np.random.Generator(np.random.Philox(key=52))
        x = Tensor(rng.standard_normal((2, 3, 14)))
        a = MdscBlock(cfg, seed=0).forward(x, mode="train")
        b = StandardMultiScaleBlock(cfg, seed=0).forward(x, mode="train")
        assert a.shape == b.shape

    def test_param_count_exceeds_mdsc(self):
        from ldrpmnet.mdsc import mdsc_param_count

        for c1, c2 in [(2, 2), (4, 8), (8, 16), (16, 16)]:
            cfg = MdscConfig(c1, c2, (3, 5, 7))
            blk = StandardMultiScaleBlock(cfg, seed=0)
            assert blk.param_count() == standard_multiscale_param_count(cfg)
            assert blk.param_count() > mdsc_param_count(cfg)

    def test_differs_from_mdsc_only_in_grouping_and_names(self):
        body = ast.parse(textwrap.dedent(inspect.getsource(StandardMultiScaleBlock)))
        assert not [f.name for f in body.body[0].body if isinstance(f, ast.FunctionDef)]
        blk = StandardMultiScaleBlock(MdscConfig(3, 5, (3, 5)), seed=0)
        assert [br.groups for br in blk.depthwise] == [1, 1]
        assert [n for n, _ in blk.parameters()] == [
            "branch_k3.weight", "branch_k5.weight", "pointwise.weight",
            "pointwise.bias", "bn.gamma", "bn.beta"]


class TestToggleIsolation:
    def test_conv_toggle_only_changes_conv_stages(self):
        cnt = build_preset("cnt", base=SMALL)
        mdsc = build_preset("cnt-mdsc", base=SMALL)
        names_cnt = {n: p.shape for n, p in cnt.parameters()}
        names_mdsc = {n: p.shape for n, p in mdsc.parameters()}
        diff = set(names_cnt.items()) ^ set(names_mdsc.items())
        assert diff and all(n.startswith("stage") for n, _ in diff)

    def test_attn_toggle_only_changes_encoder(self):
        cnt = build_preset("cnt", base=SMALL)
        bsa = build_preset("cnt-bsa", base=SMALL)
        names_cnt = {n: p.shape for n, p in cnt.parameters()}
        names_bsa = {n: p.shape for n, p in bsa.parameters()}
        diff = set(names_cnt.items()) ^ set(names_bsa.items())
        assert diff and all(n.startswith("encoder") for n, _ in diff)

    def test_param_count_is_sum_of_layers(self):
        net = build(SMALL, seed=0)
        assert net.param_count() == sum(p.size for _, p in net.parameters())


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=53))
        net = build(SMALL, seed=3)
        net.stem_bn.state.mean[:] = rng.standard_normal(4)   # non-trivial buffers
        path = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for (na, a), (nb, b) in zip(net.state_arrays(), loaded.state_arrays()):
            assert na == nb
            assert np.array_equal(a, b)

    def test_round_trip_preserves_forward(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=54))
        net = build(SMALL, seed=4)
        path = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        x = Tensor(rng.standard_normal((1, 1, 256)))
        with T.no_grad():
            npt.assert_array_equal(net.forward(x).data, loaded.forward(x).data)

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "weights.bin")
        with open(path, "wb") as f:
            f.write(b"NOTRPMxxxx")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        net = build(SMALL, seed=0)
        path = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(net, path)
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        path = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(build(SMALL, seed=0), path)
        with open(path, "rb") as f:
            return path, f.read()

    def test_renamed_tensor(self, tmp_path):
        path, blob = self._saved(tmp_path)
        with open(path, "wb") as f:
            f.write(blob.replace(b"stem.weight", b"stem.wEight"))
        with pytest.raises(ValueError, match=r"missing \['stem.weight'\], "
                                             r"extra \['stem.wEight'\]"):
            load_checkpoint(path)

    def test_missing_tensor(self):
        net = build(SMALL, seed=0)
        arrays = dict(net.state_arrays())
        del arrays["head.bias"]
        with pytest.raises(ValueError, match=r"missing \['head.bias'\]"):
            net.load_state_arrays(arrays)

    # SHA-256 of each preset's REDUCED_CONFIG seed-0 checkpoint: pins the
    # state-array names, their order and the initial values together
    GOLDEN = {
        "cnt": ("193bbcdf31796700b610c020e7e48d0f187e75d2b05119147b88e76ae1896146", 68),
        "cnt-mdsc": ("21f3d0425bbbc75df5430a323ccae806e45d4abd8dd85e97206141653c618304", 68),
        "cnt-bsa": ("97ace0d4f20f048a63255b049f857a9ae2ab2b5a4b81d5e8f20e2b0d17a092ca", 66),
        "ld-rpmnet": ("47c58934c50b578495011903e34a726135557f13db687e43dbda75aaf296ecb0", 66),
    }

    @pytest.mark.parametrize("preset", sorted(GOLDEN))
    def test_golden_checkpoint(self, tmp_path, preset):
        net = build_preset(preset, base=REDUCED_CONFIG, seed=0)
        path = os.path.join(tmp_path, "weights.bin")
        save_checkpoint(net, path)
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert (digest, len(net.state_arrays())) == self.GOLDEN[preset]

    def test_trailing_bytes(self, tmp_path):
        path, blob = self._saved(tmp_path)
        with open(path, "wb") as f:
            f.write(blob + b"\0")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_declared_size_is_checked_before_build(self, tmp_path, monkeypatch):
        path, blob = self._saved(tmp_path)
        n, = struct.unpack("<I", blob[6:10])
        text = blob[10:10 + n].replace(b"stem_channels = 4", b"stem_channels = 400000")
        with open(path, "wb") as f:
            f.write(blob[:6] + struct.pack("<I", len(text)) + text + blob[10 + n:])

        def build_nothing(*args, **kwargs):
            raise AssertionError("a network was built for a mismatched checkpoint")

        monkeypatch.setattr(model, "build", build_nothing)
        params = build(SMALL).param_count()
        with pytest.raises(ValueError, match=f"declares [0-9]+ parameters, "
                                             f"the file holds {params}"):
            load_checkpoint(path)


_TINY = ModelConfig(input_length=32, stem=(2, 3, 2), stages=((4, (3,), 2),),
                    encoder=(1, 4, 1, 1), num_classes=2)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "weights.bin"
    save_checkpoint(build(_TINY, seed=0), path)
    return path.read_bytes()


def _mutate(blob: bytes, data) -> bytes:
    """Up to 3 replaced bytes, then maybe a cut and a short tail."""
    blob = bytearray(blob)
    # most bytes are parameter values: the config text and the first tensor
    # headers are in the first 300, and a digit there keeps the text valid
    where = st.one_of(st.integers(0, 300), st.integers(0, len(blob) - 1))
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789"))
    for _ in range(data.draw(st.integers(0, 3))):
        blob[data.draw(where)] = data.draw(byte)
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(blob)))
        return bytes(blob[:cut]) + data.draw(st.binary(max_size=12))
    return bytes(blob)


class TestFuzzedCheckpoint:
    """Mutated or truncated checkpoint bytes load as a network or raise a
    ValueError, and `ldrpmnet eval` on them exits with an error line."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_checkpoint(self, tmp_path, tiny_checkpoint, data):
        path = tmp_path / "weights.bin"
        path.write_bytes(_mutate(tiny_checkpoint, data))
        try:
            net = load_checkpoint(path)
        except ValueError:
            pass
        else:
            assert isinstance(net, Network)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cli_exits_without_traceback(self, tmp_path, tiny_checkpoint,
                                         capsys, data):
        path = tmp_path / "weights.bin"
        path.write_bytes(_mutate(tiny_checkpoint, data))
        # no dataset: a checkpoint that loads fails next, on --data
        code = cli_dispatch(["eval", "--weights", str(path),
                             "--data", str(tmp_path / "no-data")])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.startswith("error:") and "Traceback" not in err
