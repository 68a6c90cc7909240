import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldrpmnet import dataset
from ldrpmnet.dataset import (WAVEFORM_MAGIC, BadMagicError, DatasetLoadError,
                              ManifestError, TruncatedFileError, generate, load,
                              rms_centroid_accuracy, save, split)

LENGTH = 1024


@pytest.fixture(scope="module")
def corpus():
    return split(generate(0, LENGTH), 0)


class TestGenerate:
    def test_class_counts(self, corpus):
        counts = [corpus.class_counts()[c] for c in range(1, 11)]
        assert counts == [121, 180, 158, 120, 124, 84, 80, 113, 112, 120]
        assert len(corpus) == 1212

    def test_deterministic(self):
        a = generate(3, LENGTH)
        b = generate(3, LENGTH)
        assert np.array_equal(a.waveforms, b.waveforms)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_waveforms(self):
        a = generate(1, LENGTH)
        b = generate(2, LENGTH)
        assert not np.array_equal(a.waveforms, b.waveforms)

    def test_amplitude_bounds_and_finiteness(self, corpus):
        assert np.isfinite(corpus.waveforms).all()
        assert np.abs(corpus.waveforms).max() <= 1.0

    def test_overdrive_rms_ordering(self, corpus):
        rms = np.sqrt((corpus.waveforms ** 2).mean(axis=1))
        means = [rms[corpus.labels == c].mean() for c in (5, 6, 7)]
        assert means[0] < means[1] < means[2]

    def test_float32_and_equal_to_the_float64_corpus(self):
        # SHA-256 of generate(0, 2048).waveforms when the corpus was float64
        waveforms = generate(0, 2048).waveforms
        assert waveforms.dtype == np.float32
        digest = hashlib.sha256(waveforms.astype(np.float64).tobytes()).hexdigest()
        assert digest == ("58ca4a390ab3d9139a64876e0708aa69"
                          "e88dfd4741fe0b8f4399aaa5115770ed")

    def test_min_length_enforced(self):
        with pytest.raises(ValueError, match="1024"):
            generate(0, 512)


class TestSplit:
    def test_sizes(self, corpus):
        sizes = tuple(len(corpus.indices(p)) for p in ("train", "val", "test"))
        assert sizes == (845, 245, 122)

    def test_partition(self, corpus):
        parts = [set(corpus.indices(p)) for p in ("train", "val", "test")]
        assert sum(len(p) for p in parts) == 1212
        assert set().union(*parts) == set(range(1212))

    def test_every_class_in_every_split(self, corpus):
        for part in ("train", "val", "test"):
            labels = corpus.labels[corpus.indices(part)]
            assert set(labels.tolist()) == set(range(1, 11))

    def test_per_class_test_fraction(self, corpus):
        test_labels = corpus.labels[corpus.indices("test")]
        for c in range(1, 11):
            n_c = corpus.class_counts()[c]
            got = int((test_labels == c).sum())
            assert abs(got - n_c / 10) <= 3

    def test_deterministic(self):
        a = split(generate(0, LENGTH), 5)
        b = split(generate(0, LENGTH), 5)
        assert np.array_equal(a.split, b.split)


class TestIO:
    def _small(self):
        corpus = generate(0, LENGTH)
        idx = np.arange(10) * 100
        return dataset.SampleSet(corpus.waveforms[idx], corpus.labels[idx],
                                 corpus.split[idx].copy())

    def test_round_trip(self, tmp_path):
        s = self._small()
        save(s, tmp_path)
        loaded = load(tmp_path)
        assert np.array_equal(s.waveforms, loaded.waveforms)
        assert np.array_equal(s.labels, loaded.labels)

    def test_save_is_byte_stable(self, tmp_path):
        s = self._small()
        d1, d2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        save(s, d1)
        save(load(d1), d2)
        for name in sorted(os.listdir(d1)):
            with open(os.path.join(d1, name), "rb") as f1, \
                 open(os.path.join(d2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_truncated_file(self, tmp_path):
        save(self._small(), tmp_path)
        victim = os.path.join(tmp_path, "wav00003.bin")
        with open(victim, "rb") as f:
            blob = f.read()
        with open(victim, "wb") as f:
            f.write(blob[:-7])
        with pytest.raises(TruncatedFileError):
            load(tmp_path)

    def test_bad_magic(self, tmp_path):
        save(self._small(), tmp_path)
        victim = os.path.join(tmp_path, "wav00000.bin")
        with open(victim, "r+b") as f:
            f.write(b"XXXXX")
        with pytest.raises(BadMagicError):
            load(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        save(self._small(), tmp_path)
        manifest = os.path.join(tmp_path, "manifest.csv")
        with open(manifest) as f:
            lines = f.read().splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[1], "11", 1)
        with open(manifest, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="1..10"):
            load(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="manifest"):
            load(os.path.join(tmp_path, "nothing"))

    def _set_row(self, tmp_path, line, field, value):
        manifest = os.path.join(tmp_path, "manifest.csv")
        with open(manifest) as f:
            rows = [r.split(",") for r in f.read().splitlines()]
        rows[line][field] = value
        with open(manifest, "w") as f:
            f.write("\n".join(",".join(r) for r in rows) + "\n")

    def test_loads_float32(self, tmp_path):
        save(self._small(), tmp_path)
        assert load(tmp_path).waveforms.dtype == np.float32

    def test_non_integer_class_id(self, tmp_path):
        save(self._small(), tmp_path)
        self._set_row(tmp_path, 4, 1, "three")
        with pytest.raises(ManifestError, match=r"manifest\.csv, line 5: .*'three'"):
            load(tmp_path)

    @pytest.mark.parametrize("name", ["", ".", "..", "../wav00000.bin",
                                      "sub/wav00000.bin", "sub\\wav00000.bin",
                                      "/wav00000.bin"])
    def test_file_outside_the_directory_opens_nothing(self, tmp_path, monkeypatch,
                                                      name):
        save(self._small(), tmp_path)
        self._set_row(tmp_path, 10, 3, name)

        def no_open(path):
            raise AssertionError(f"opened {path}")

        monkeypatch.setattr(dataset, "_load_waveform", no_open)
        with pytest.raises(ManifestError, match="line 11: file"):
            load(tmp_path)

    def test_missing_listed_file(self, tmp_path):
        save(self._small(), tmp_path)
        os.remove(os.path.join(tmp_path, "wav00002.bin"))
        with pytest.raises(ManifestError, match="wav00002.bin.*does not exist"):
            load(tmp_path)

    def test_length_mismatch_stops_at_the_first_bad_file(self, tmp_path,
                                                         monkeypatch):
        s = self._small()
        save(s, tmp_path)
        short = dataset.SampleSet(s.waveforms[:1, :LENGTH // 2], s.labels[:1])
        save(short, os.path.join(tmp_path, "short"))
        os.replace(os.path.join(tmp_path, "short", "wav00000.bin"),
                   os.path.join(tmp_path, "wav00003.bin"))
        opened = []
        read = dataset._load_waveform
        monkeypatch.setattr(dataset, "_load_waveform",
                            lambda path: opened.append(path) or read(path))
        with pytest.raises(ManifestError, match="wav00003.bin holds 512"):
            load(tmp_path)
        assert len(opened) == 4


class TestDifficultyFloor:
    def test_rms_centroid_below_70_percent(self, corpus):
        assert rms_centroid_accuracy(corpus) < 0.70


# --------------------------------------------------------------------------
# fuzzing the reader: only DatasetLoadError subclasses may come out
# --------------------------------------------------------------------------

def _waveform_blob(samples) -> bytes:
    data = np.asarray(samples, dtype="<f4")
    return WAVEFORM_MAGIC + struct.pack("<I", len(data)) + data.tobytes()


@st.composite
def _mutated_waveform_files(draw):
    samples = draw(st.lists(st.floats(width=32), max_size=24))
    blob = bytearray(_waveform_blob(samples))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(blob)))
    tail = draw(st.binary(max_size=12))
    return bytes(blob[:cut]) + tail if draw(st.booleans()) else bytes(blob)


def _field(*likely):
    return st.one_of(st.sampled_from(likely), st.text(max_size=8))


_ROW = st.one_of(
    st.tuples(_field("0", "7"),
              _field("1", "10", "0", "11", "-1", "1.0", " 2", ""),
              _field("", "train", "val", "test", "Test"),
              _field("wav00000.bin", "wav00001.bin", "missing.bin", "manifest.csv",
                     "", ".", "..", "../wav00000.bin", "a/b", "a\\b")).map(list),
    st.lists(_field('"', ",", "\n", "1", "wav00000.bin"), min_size=1, max_size=6))

_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedReader:
    @_FUZZ
    @given(blob=_mutated_waveform_files())
    def test_mutated_waveform_file(self, tmp_path, blob):
        with open(os.path.join(tmp_path, "manifest.csv"), "w") as f:
            f.write("id,class,split,file\n0,1,train,wav00000.bin\n")
        with open(os.path.join(tmp_path, "wav00000.bin"), "wb") as f:
            f.write(blob)
        try:
            loaded = load(tmp_path)
        except DatasetLoadError:
            return
        declared, = struct.unpack("<I", blob[5:9])
        assert loaded.waveforms.dtype == np.float32
        assert loaded.waveforms.shape == (1, declared)
        assert loaded.waveforms.tobytes() == blob[9:]

    @_FUZZ
    @given(rows=st.lists(_ROW, min_size=0, max_size=4),
           raw=st.one_of(st.just(""), st.text(max_size=40)))
    def test_mutated_manifest_rows(self, tmp_path, rows, raw):
        for i, samples in enumerate(([0.5, -0.25], [1.0, 0.0])):
            with open(os.path.join(tmp_path, f"wav{i:05d}.bin"), "wb") as f:
                f.write(_waveform_blob(samples))
        with open(os.path.join(tmp_path, "manifest.csv"), "w",
                  encoding="utf-8", newline="") as f:
            f.write("id,class,split,file\n")
            f.write("".join(",".join(r) + "\n" for r in rows) + raw)
        try:
            loaded = load(tmp_path)
        except DatasetLoadError:
            return
        assert loaded.waveforms.dtype == np.float32
        assert loaded.waveforms.shape == (len(loaded), 2)
        assert set(loaded.labels.tolist()) <= set(dataset.CLASS_IDS)
