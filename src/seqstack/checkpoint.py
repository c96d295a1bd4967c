"""Versioned binary container for model parameters plus their config.

Layout, all integers little-endian:

    8s   magic
    u32  format version
    u32  config JSON byte length, then that many utf-8 bytes
    u32  parameter count
    per parameter, in sorted name order:
        u16  name byte length, then the utf-8 name
        u8   dtype code (1 = float32, 2 = float64)
        u8   rank
        u32  per-axis sizes
        raw little-endian C-order element bytes

Loading validates magic/version/framing up front and leaves interpretation of
the config dict to the caller; `restore_parameters` enforces an exact match
between the stored blob set and a live parameter dict.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .tensor import Tensor

MAGIC = b"SSTKCKPT"
FORMAT_VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def save_checkpoint(path, config: dict, params: dict[str, Tensor]) -> None:
    """Write the checkpoint atomically: the target is either old or complete."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    config_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(config_bytes))
    blob += config_bytes
    blob += struct.pack("<I", len(params))
    for name in sorted(params):
        data = np.asarray(params[name].data)
        code = _CODE_FOR_KIND.get(data.dtype)
        if code is None:
            raise DataError(f"parameter {name!r} has unsupported dtype {data.dtype}")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<BB", code, data.ndim)
        blob += struct.pack(f"<{data.ndim}I", *data.shape)
        blob += np.ascontiguousarray(data, dtype=_DTYPE_CODES[code]).tobytes()
    # Write a sibling temp file, then rename it over the target.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(blob))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise DataError(f"{self.path}: truncated checkpoint file")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint file back into (config dict, name -> array)."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    (config_len,) = reader.unpack("<I")
    try:
        config = json.loads(reader.take(config_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt config block: {exc}") from exc
    (count,) = reader.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt parameter name: {exc}") from exc
        code, ndim = reader.unpack("<BB")
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise DataError(f"{path}: parameter {name!r} has unknown dtype code {code}")
        shape = reader.unpack(f"<{ndim}I")
        n_items = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw = reader.take(n_items * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        arrays[name] = arr.astype(dtype.newbyteorder("="))
    if reader.pos != len(reader.buf):
        raise DataError(f"{path}: trailing bytes after last parameter")
    return config, arrays


def restore_parameters(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy stored arrays into live parameters; the sets must match exactly."""
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise DataError(
            f"checkpoint does not match model: missing {missing}, unexpected {unexpected}"
        )
    for name, tensor in params.items():
        arr = arrays[name]
        if arr.shape != tensor.data.shape:
            raise DataError(
                f"parameter {name!r}: checkpoint shape {arr.shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = arr.astype(tensor.data.dtype, copy=True)
