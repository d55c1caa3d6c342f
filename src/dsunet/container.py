"""Binary container for named float32 tensors.

Little-endian layout: 4-byte magic ("DSUF" for feature files, "DSUT" for
checkpoints), u32 version = 1, u32 tensor count, then per tensor:
u32 name length, UTF-8 name, u32 ndim, ndim x u64 dims, row-major
float32 payload.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import DsuError

MAGIC_FEATURES = b"DSUF"
MAGIC_CHECKPOINT = b"DSUT"
VERSION = 1


class ContainerError(DsuError, ValueError):
    """A file that is not a well-formed container of the expected kind."""


def _byte_view(arr):
    """The bytes of a C-contiguous array as a flat uint8 view, not a copy."""
    return arr.reshape(-1).view(np.uint8)


def write_container(path, tensors, magic=MAGIC_FEATURES):
    """Write name -> float array mapping; values must be finite.

    Every tensor is checked before the file is opened, so a rejected mapping
    leaves an existing file at ``path`` as it was.  Each payload is written
    from its array's own buffer, not from a bytes copy of it.
    """
    arrays = {}
    for name, arr in tensors.items():
        with np.errstate(over="ignore"):   # out of float32 range: inf, rejected below
            arr = np.asarray(arr, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name!r} contains non-finite values")
        arrays[name] = arr
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<II", VERSION, len(arrays)))
        for name, arr in arrays.items():
            nameb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nameb)) + nameb
                    + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            f.write(_byte_view(np.ascontiguousarray(arr, dtype="<f4")))


class _Reader:
    """Reads fields from an open file; a field that runs past its end is
    rejected before anything is allocated for it."""

    def __init__(self, f):
        self.f = f
        self.left = os.fstat(f.fileno()).st_size

    def _require(self, ok, what):
        if not ok:
            raise ContainerError(f"{self.f.name}: truncated payload while reading {what}")

    def _claim(self, n, what):
        self._require(n <= self.left, what)
        self.left -= n

    def take(self, n, what):
        self._claim(n, what)
        chunk = self.f.read(n)
        self._require(len(chunk) == n, what)
        return chunk

    def take_array(self, dims, what):
        n = 4 * math.prod(dims)
        self._claim(n, what)
        arr = np.empty(dims, dtype="<f4")
        self._require(not n or self.f.readinto(_byte_view(arr)) == n, what)
        return arr.astype(np.float32, copy=False)


def read_container(path, magic=MAGIC_FEATURES):
    """Read a container back into a name -> float32 array dict; a malformed file
    (a name not UTF-8 or given twice too) is a ContainerError naming ``path``.

    Each payload is read into a new array of its own; on a little-endian
    machine that array is returned as it is, with no further copy.
    """
    with open(path, "rb") as f:
        r = _Reader(f)
        got = r.take(4, "magic")
        if got != magic:
            raise ContainerError(f"{path}: bad magic {got!r}, expected {magic!r}")
        version, count = struct.unpack("<II", r.take(8, "header"))
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported version {version}")
        out = {}
        for i in range(count):
            (name_len,) = struct.unpack("<I", r.take(4, "name length"))
            try:
                name = r.take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise ContainerError(f"{path}: tensor {i}: name is not UTF-8") from None
            if name in out:
                raise ContainerError(f"{path}: tensor {i}: name {name!r} appears twice")
            (ndim,) = struct.unpack("<I", r.take(4, "ndim"))
            dims = struct.unpack(f"<{ndim}Q", r.take(8 * ndim, "dims"))
            out[name] = r.take_array(dims, f"payload of {name!r}")
    return out
