"""Checkpoint container: framing, round trips, and rejection paths."""

import errno
import struct
from pathlib import Path

import numpy as np
import pytest

import seqstack.checkpoint as C
from seqstack.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    restore_parameters,
    save_checkpoint,
)
from seqstack.errors import DataError
from seqstack.tensor import constant, parameter

GOLDEN_CHECKPOINT = Path(__file__).parent / "golden" / "model.ckpt"


def small_params(rng):
    return {
        "layer.w": parameter(rng.standard_normal((3, 4)).astype(np.float32)),
        "layer.b": parameter(rng.standard_normal(4).astype(np.float64)),
        "scalarish": parameter(rng.standard_normal((1,)).astype(np.float32)),
    }


class TestRoundTrip:
    def test_arrays_and_config_survive_exactly(self, tmp_path, rng):
        params = small_params(rng)
        config = {"train": {"lr": 1e-4, "epochs": 3}, "note": "round trip"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        loaded_config, arrays = load_checkpoint(path)
        assert loaded_config == config
        assert set(arrays) == set(params)
        for name, tensor in params.items():
            assert arrays[name].dtype == tensor.data.dtype
            np.testing.assert_array_equal(arrays[name], tensor.data)

    def test_restore_overwrites_live_parameters(self, tmp_path, rng):
        params = small_params(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, params)
        fresh = small_params(np.random.default_rng(999))
        _, arrays = load_checkpoint(path)
        restore_parameters(fresh, arrays)
        for name in params:
            np.testing.assert_array_equal(fresh[name].data, params[name].data)

    def test_restore_casts_to_live_dtype(self, tmp_path):
        stored = {"w": parameter(np.array([1.5, -2.25], dtype=np.float64))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, stored)
        live = {"w": parameter(np.zeros(2, dtype=np.float32))}
        _, arrays = load_checkpoint(path)
        restore_parameters(live, arrays)
        assert live["w"].data.dtype == np.float32
        np.testing.assert_array_equal(live["w"].data, np.array([1.5, -2.25], np.float32))

    def test_resaving_the_golden_arrays_gives_its_exact_bytes(self, tmp_path):
        config, arrays = load_checkpoint(GOLDEN_CHECKPOINT)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, {name: constant(a) for name, a in arrays.items()})
        assert path.read_bytes() == GOLDEN_CHECKPOINT.read_bytes()

    def test_restored_parameters_are_writable_copies(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, small_params(rng))
        _, arrays = load_checkpoint(path)
        live = small_params(np.random.default_rng(5))
        restore_parameters(live, arrays)
        for name, tensor in live.items():
            assert tensor.data.flags.writeable
            assert not np.shares_memory(tensor.data, arrays[name])
            np.testing.assert_array_equal(tensor.data, arrays[name])

    def test_on_disk_floats_are_little_endian(self, tmp_path):
        # [TRIVIAL] the single stored value must appear as its LE byte string.
        params = {"x": parameter(np.array([1.0], dtype=np.float32))}
        path = tmp_path / "one.ckpt"
        save_checkpoint(path, {}, params)
        blob = path.read_bytes()
        assert blob.startswith(MAGIC)
        assert struct.pack("<f", 1.0) == blob[-4:]


class TestCrashSafety:
    def test_write_failing_midway_keeps_previous_checkpoint(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"epoch": 1}, small_params(rng))
        before = path.read_bytes()

        class HalfWriter:
            """A file that takes half of the first write, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(
            C, "open", lambda *a, **kw: HalfWriter(open(*a, **kw)), raising=False
        )
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, {"epoch": 2}, small_params(np.random.default_rng(5)))
        monkeypatch.undo()
        assert path.read_bytes() == before
        config, _ = load_checkpoint(path)
        assert config == {"epoch": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


    def test_write_failing_inside_a_parameter_keeps_previous_checkpoint(
        self, tmp_path, rng, monkeypatch
    ):
        run = tmp_path / "run"
        run.mkdir()
        path = run / "model.ckpt"
        save_checkpoint(path, {"epoch": 1}, small_params(rng))
        before = path.read_bytes()
        params = small_params(np.random.default_rng(5))
        save_checkpoint(tmp_path / "full.ckpt", {"epoch": 2}, params)
        weight = params["layer.w"].data.tobytes()
        # The disk fills halfway through the bytes of layer.w, not in the header.
        limit = (tmp_path / "full.ckpt").read_bytes().index(weight) + len(weight) // 2
        writers = []

        class FullDiskWriter:
            """A file that takes `limit` bytes over any number of writes, then
            reports a full disk."""

            def __init__(self, fh):
                self.fh = fh
                self.written = 0
                self.writes = 0
                writers.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                view = memoryview(data)
                assert view.ndim == 1 and view.itemsize == 1, "writes take 1-D bytes"
                self.writes += 1
                room = limit - self.written
                self.fh.write(view[:room])
                self.written += min(room, len(view))
                if len(view) > room:
                    self.fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")
                return len(view)

        monkeypatch.setattr(
            C, "open", lambda *a, **kw: FullDiskWriter(open(*a, **kw)), raising=False
        )
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, {"epoch": 2}, params)
        monkeypatch.undo()
        [writer] = writers
        assert writer.writes > 1 and writer.written == limit
        assert path.read_bytes() == before
        config, _ = load_checkpoint(path)
        assert config == {"epoch": 1}
        assert [p.name for p in run.iterdir()] == ["model.ckpt"]


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, small_params(rng))
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"k": 1}, small_params(rng))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, small_params(rng))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_repeated_parameter_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {"w1": parameter(np.zeros(2)), "w2": parameter(np.ones(3))})
        blob = path.read_bytes()
        assert blob.count(b"w2") == 1
        path.write_bytes(blob.replace(b"w2", b"w1"))
        with pytest.raises(DataError, match=r"model\.ckpt: parameter 'w1' is stored twice"):
            load_checkpoint(path)

    def test_restore_rejects_shape_mismatch(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {"w": parameter(np.zeros((2, 3)))})
        _, arrays = load_checkpoint(path)
        live = {"w": parameter(np.zeros((3, 2)))}
        with pytest.raises(DataError, match="shape"):
            restore_parameters(live, arrays)

    def test_restore_rejects_name_set_mismatch(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {"w": parameter(np.zeros(2))})
        _, arrays = load_checkpoint(path)
        with pytest.raises(DataError, match="missing"):
            restore_parameters({"w2": parameter(np.zeros(2))}, arrays)

    def test_unsupported_param_dtype(self, tmp_path):
        bad = {"ids": parameter(np.zeros(3))}
        bad["ids"].data = np.zeros(3, dtype=np.int64)
        with pytest.raises(DataError, match="dtype"):
            save_checkpoint(tmp_path / "x.ckpt", {}, bad)
