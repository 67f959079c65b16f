"""Sparse per-voxel feature persistence (IRVX), frame-stack container, exports.

IRVX layout (little-endian):
  magic "IRVX", version u32, pitch f32 x3 (um), dims u32 x3,
  part count u32, parts (id u16, name length u16, utf-8 name),
  block count u32, then per block: layer u32, feature_id u8, entry count u32,
  entries (voxel linear index u32, value f32) interleaved.

Entry indices are strictly increasing within a block and every
(layer, feature_id) pair appears at most once. Reads are bounded by the
actual byte count, so corrupt headers cannot trigger huge allocations.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FeatureNotFoundError,
    ParameterError,
    StoreCorruptionError,
    StoreFormatError,
)
from .geometry import SparseFeature

MAGIC = b"IRVX"
VERSION = 1

_ENTRY_DTYPE = np.dtype([("index", "<u4"), ("value", "<f4")])

STACK_MAGIC = b"IRFS"
STACK_VERSION = 1


@dataclass
class StoreMeta:
    pitch_um: tuple[float, float, float]
    dims: tuple[int, int, int]
    parts: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class FeatureStore:
    meta: StoreMeta
    blocks: dict[tuple[int, int], SparseFeature] = field(default_factory=dict)

    def add(self, layer: int, feature_id: int, sparse: SparseFeature) -> None:
        key = (int(layer), int(feature_id))
        if key in self.blocks:
            raise ParameterError(f"(layer, feature) {key} already present")
        idx = np.asarray(sparse.indices, dtype=np.uint32)
        if len(idx) > 1 and not (np.diff(idx.astype(np.int64)) > 0).all():
            raise ParameterError(
                f"entry indices must be strictly increasing in block {key}"
            )
        self.blocks[key] = SparseFeature(
            indices=idx, values=np.asarray(sparse.values, dtype=np.float32)
        )

    def get(self, layer: int, feature_id: int) -> SparseFeature:
        key = (int(layer), int(feature_id))
        if key not in self.blocks:
            raise FeatureNotFoundError(f"(layer, feature) {key} not in store")
        return self.blocks[key]


def write_store(store: FeatureStore) -> bytes:
    meta = store.meta
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<3f", *meta.pitch_um)
    out += struct.pack("<3I", *meta.dims)
    out += struct.pack("<I", len(meta.parts))
    for pid, name in meta.parts:
        nb = name.encode("utf-8")
        out += struct.pack("<HH", pid, len(nb))
        out += nb
    keys = sorted(store.blocks)
    out += struct.pack("<I", len(keys))
    for layer, fid in keys:
        sp = store.blocks[(layer, fid)]
        out += struct.pack("<IBI", layer, fid, len(sp.indices))
        packed = np.empty(len(sp.indices), dtype=_ENTRY_DTYPE)
        packed["index"] = sp.indices
        packed["value"] = sp.values
        out += packed.tobytes()
    return bytes(out)


def read_store(data: bytes) -> FeatureStore:
    if data[:4] != MAGIC:
        raise StoreFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    pos = 4

    def need(n, what, layer=None, fid=None):
        nonlocal pos
        if pos + n > len(data):
            raise StoreCorruptionError(
                f"store truncated reading {what} at byte {pos}"
                + (f" (layer {layer}, feature {fid})" if layer is not None else ""),
                offset=pos,
                layer=layer,
                feature_id=fid,
            )
        start = pos
        pos += n
        return data[start:pos]

    (version,) = struct.unpack("<I", need(4, "version"))
    if version != VERSION:
        raise StoreFormatError(f"unsupported store version {version}")
    pitch = struct.unpack("<3f", need(12, "pitch"))
    dims = struct.unpack("<3I", need(12, "dims"))
    (n_parts,) = struct.unpack("<I", need(4, "part count"))
    parts = []
    for _ in range(n_parts):
        pid, nlen = struct.unpack("<HH", need(4, "part entry"))
        name = need(nlen, "part name").decode("utf-8")
        parts.append((pid, name))
    store = FeatureStore(meta=StoreMeta(pitch_um=pitch, dims=dims, parts=parts))
    (n_blocks,) = struct.unpack("<I", need(4, "block count"))
    for _ in range(n_blocks):
        layer, fid, count = struct.unpack("<IBI", need(9, "block header"))
        raw = need(count * _ENTRY_DTYPE.itemsize, "block entries", layer, fid)
        packed = np.frombuffer(raw, dtype=_ENTRY_DTYPE)
        store.add(
            layer,
            fid,
            SparseFeature(
                indices=packed["index"].copy(), values=packed["value"].copy()
            ),
        )
    return store


@dataclass
class ReductionReport:
    raw_bytes: int
    stored_bytes: int

    @property
    def ratio(self) -> float:
        return 1.0 - self.stored_bytes / self.raw_bytes

    @property
    def meets_99_percent(self) -> bool:
        return self.ratio >= 0.99


def reduction_report(
    frame_dims: tuple[int, int], frame_counts, store_bytes: int
) -> ReductionReport:
    """Compare raw frame bytes (u16 per pixel) against the persisted store size."""
    w, h = frame_dims
    raw = int(sum(w * h * 2 * int(n) for n in frame_counts))
    if raw <= 0:
        raise ParameterError("raw byte count must be positive")
    return ReductionReport(raw_bytes=raw, stored_bytes=int(store_bytes))


def _layer_grid(store: FeatureStore, layer: int, feature_id: int):
    """Reconstruct the (ny, nx) in-plane grid for one block; NaN where absent."""
    sp = store.get(layer, feature_id)
    nx, ny, _ = store.meta.dims
    grid = np.full((ny, nx), np.nan, dtype=np.float64)
    idx = sp.indices.astype(np.int64)
    plane = idx - nx * ny * layer
    i = plane % nx
    j = plane // nx
    grid[j, i] = sp.values
    return grid, i, j


def export_grid(store: FeatureStore, layer: int, feature_id: int, fmt: str) -> bytes:
    """Export one (layer, feature) grid as csv, vtk, or pgm-heatmap bytes."""
    if fmt == "csv":
        return _export_csv(store, layer, feature_id)
    if fmt == "vtk":
        return _export_vtk(store, layer, feature_id)
    if fmt == "pgm-heatmap":
        return _export_pgm(store, layer, feature_id)
    raise ParameterError(f"unknown export format {fmt!r}")


def _export_csv(store: FeatureStore, layer: int, feature_id: int) -> bytes:
    sp = store.get(layer, feature_id)
    nx, ny, _ = store.meta.dims
    lines = ["i,j,layer,value"]
    idx = sp.indices.astype(np.int64)
    plane = idx - nx * ny * layer
    for k in range(len(idx)):
        v = float(sp.values[k])
        if np.isnan(v):
            continue
        lines.append(f"{plane[k] % nx},{plane[k] // nx},{layer},{v!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _export_vtk(store: FeatureStore, layer: int, feature_id: int) -> bytes:
    grid, _, _ = _layer_grid(store, layer, feature_id)
    nx, ny, _ = store.meta.dims
    px, py, pz = store.meta.pitch_um
    header = (
        "# vtk DataFile Version 3.0\n"
        f"irmap feature {feature_id} layer {layer}\n"
        "ASCII\n"
        "DATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {nx} {ny} 1\n"
        f"ORIGIN 0 0 {layer * pz / 1000.0}\n"
        f"SPACING {px / 1000.0} {py / 1000.0} {pz / 1000.0}\n"
        f"POINT_DATA {nx * ny}\n"
        f"SCALARS feature_{feature_id} float 1\n"
        "LOOKUP_TABLE default\n"
    )
    vals = grid.reshape(-1)  # x-fastest: grid is (ny, nx) row-major
    body = "\n".join(repr(float(v)) for v in vals)
    return (header + body + "\n").encode("utf-8")


def _export_pgm(store: FeatureStore, layer: int, feature_id: int) -> bytes:
    grid, _, _ = _layer_grid(store, layer, feature_id)
    nx, ny, _ = store.meta.dims
    valid = np.isfinite(grid)
    out = np.zeros((ny, nx), dtype=">u2")
    if valid.any():
        lo = float(grid[valid].min())
        hi = float(grid[valid].max())
        span = hi - lo if hi > lo else 1.0
        out[valid] = np.round((grid[valid] - lo) / span * 65535.0).astype(">u2")
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    return header + out.tobytes()


def parse_vtk(data: bytes):
    """Minimal reader for the legacy ASCII structured-points files we emit."""
    lines = data.decode("utf-8").splitlines()
    dims = None
    values = []
    in_values = False
    for line in lines:
        if line.startswith("DIMENSIONS"):
            dims = tuple(int(t) for t in line.split()[1:4])
        elif line.startswith("LOOKUP_TABLE"):
            in_values = True
        elif in_values and line.strip():
            values.extend(float(t) for t in line.split())
    if dims is None:
        raise ParameterError("missing DIMENSIONS in VTK input")
    arr = np.asarray(values, dtype=np.float64).reshape(dims[1], dims[0])
    return dims, arr


def quantize_counts(counts) -> np.ndarray:
    """Camera counts as the u16 a stack file holds: rounded, clipped to [0, 65535]."""
    return np.clip(np.round(counts), 0, 65535).astype("<u2")


def write_layer_stack(path, frames, fps: float = 30.0) -> None:
    """Persist one layer's frames: header + contiguous u16 count frames, each
    quantized by `quantize_counts`. The header's last u32 is reserved, 0.

    `frames` is a (n, h, w) array or any iterable of equal (h, w) frames,
    written as they come, so a caller can hold one frame at a time."""
    n, shape = 0, None
    with open(path, "wb") as f:
        f.seek(28)  # the header follows once the frames are counted
        for n, frame in enumerate(frames, 1):
            q = quantize_counts(frame)
            if q.ndim != 2 or shape not in (None, q.shape):
                raise ParameterError(f"expected (frames, h, w), got a frame of shape {q.shape}")
            shape = q.shape
            f.write(q.tobytes())
        if not n:
            raise ParameterError("a layer stack needs at least 1 frame")
        f.seek(0)
        f.write(STACK_MAGIC + struct.pack("<IIIIfI", STACK_VERSION, *shape[::-1], n, fps, 0))


def read_layer_stack(path):
    """Map a layer stack file; returns (frames u16, fps).

    The frames are a read-only memory map, so a caller that keeps a window of
    them reads only the file pages under it.
    """
    with open(path, "rb") as f:
        header = f.read(28)
        size = os.fstat(f.fileno()).st_size
    if header[:4] != STACK_MAGIC:
        raise StoreFormatError(f"bad stack magic {header[:4]!r}")
    if size < 28:
        raise StoreCorruptionError(
            f"stack header truncated: {size} bytes, expected 28", offset=size
        )
    version, w, h, n, fps = struct.unpack_from("<IIIIf", header, 4)
    if version != STACK_VERSION:
        raise StoreFormatError(f"unsupported stack version {version}")
    if n < 1:
        raise StoreFormatError(f"stack declares {n} frames, need at least 1")
    if not 0.0 < fps < np.inf:
        raise StoreFormatError(f"stack frame rate {fps} is not a positive number")
    expected = 28 + n * h * w * 2
    if size < expected:
        raise StoreCorruptionError(
            f"stack truncated: {size} bytes, expected {expected}", offset=size
        )
    frames = np.memmap(path, dtype="<u2", mode="r", offset=28, shape=(n, h, w))
    return frames, float(fps)
