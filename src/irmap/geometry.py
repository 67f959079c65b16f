"""STL parsing, camera-aligned voxelization, the camera pixel grid, and
voxel-to-pixel registration.

Voxels default to 360 x 360 x 40 um (in-plane camera pitch by build layer
thickness). A voxel is occupied when its center lies inside the mesh by a
ray-parity test along +x; degenerate hits are resolved by a deterministic
epsilon perturbation so repeated runs are bit-identical.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OutOfFrameError, ParameterError, StlParseError, StlTruncationError

DEFAULT_PITCH_UM = (360.0, 360.0, 40.0)

_BIN_HEADER = 80
_BIN_RECORD = 50


@dataclass
class TriangleMesh:
    """Triangle soup: vertices (n, 3, 3) mm, normals (n, 3)."""

    vertices: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ParameterError("mesh must contain at least one triangle")
        if not np.isfinite(self.vertices).all():
            raise ParameterError("mesh contains non-finite vertices")

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        flat = self.vertices.reshape(-1, 3)
        return flat.min(axis=0), flat.max(axis=0)

    def is_watertight(self) -> bool:
        """Every edge shared by exactly two triangles (vertex-exact match)."""
        # + 0.0 makes -0.0 and 0.0 one vertex, as they are one dict key
        corners = np.round(self.vertices, 9).reshape(-1, 3) + 0.0
        _, vid = np.unique(corners, axis=0, return_inverse=True)
        vid = vid.reshape(-1, 3)
        edges = np.sort(np.concatenate([vid[:, [0, 1]], vid[:, [1, 2]], vid[:, [2, 0]]]), axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        return bool((counts == 2).all())


def parse_stl(data: bytes) -> TriangleMesh:
    """Parse binary or ASCII STL bytes."""
    if len(data) >= _BIN_HEADER + 4:
        (count,) = struct.unpack_from("<I", data, _BIN_HEADER)
        if len(data) == _BIN_HEADER + 4 + _BIN_RECORD * count:
            return _parse_binary(data, count)
    if data.lstrip()[:5].lower() == b"solid":
        return _parse_ascii(data)
    if len(data) >= _BIN_HEADER + 4:
        (count,) = struct.unpack_from("<I", data, _BIN_HEADER)
        offset = len(data) - ((len(data) - _BIN_HEADER - 4) % _BIN_RECORD or _BIN_RECORD)
        raise StlTruncationError(
            f"binary STL declares {count} triangles but record data ends at byte "
            f"{len(data)} (expected {_BIN_HEADER + 4 + _BIN_RECORD * count})",
            offset=offset,
        )
    raise StlParseError("input too short to be an STL file")


def _parse_binary(data: bytes, count: int) -> TriangleMesh:
    records = np.frombuffer(
        data,
        dtype=np.dtype(
            [("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")]
        ),
        count=count,
        offset=_BIN_HEADER + 4,
    )
    return TriangleMesh(
        vertices=records["verts"].astype(np.float64),
        normals=records["normal"].astype(np.float64),
    )


def _parse_ascii(data: bytes) -> TriangleMesh:
    verts: list[list[list[float]]] = []
    normals: list[list[float]] = []
    current: list[list[float]] = []
    for lineno, raw in enumerate(data.decode("utf-8", errors="replace").splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        word = tokens[0].lower()
        try:
            if word == "facet":
                if len(tokens) >= 5 and tokens[1].lower() == "normal":
                    normals.append([float(t) for t in tokens[2:5]])
                else:
                    normals.append([0.0, 0.0, 0.0])
                current = []
            elif word == "vertex":
                if len(tokens) != 4:
                    raise ValueError("vertex needs 3 coordinates")
                current.append([float(t) for t in tokens[1:4]])
            elif word == "endfacet":
                if len(current) != 3:
                    raise ValueError(f"facet has {len(current)} vertices")
                verts.append(current)
        except ValueError as e:
            raise StlParseError(f"line {lineno}: {e}", line=lineno) from e
    if not verts:
        raise StlParseError("no facets found in ASCII STL")
    return TriangleMesh(
        vertices=np.asarray(verts, dtype=np.float64),
        normals=np.asarray(normals[: len(verts)], dtype=np.float64),
    )


def mesh_to_binary_stl(mesh: TriangleMesh) -> bytes:
    out = bytearray(b"\0" * _BIN_HEADER)
    out += struct.pack("<I", len(mesh.vertices))
    for n, tri in zip(mesh.normals, mesh.vertices):
        out += struct.pack("<3f", *n)
        for v in tri:
            out += struct.pack("<3f", *v)
        out += struct.pack("<H", 0)
    return bytes(out)


def box_mesh(size_mm) -> TriangleMesh:
    """Axis-aligned watertight box from the origin, 12 triangles."""
    unit = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    v = np.array(unit, dtype=np.float64) * np.asarray(size_mm, dtype=np.float64)
    faces = [
        (0, 2, 1), (0, 3, 2),  # bottom
        (4, 5, 6), (4, 6, 7),  # top
        (0, 1, 5), (0, 5, 4),  # front
        (2, 3, 7), (2, 7, 6),  # back
        (1, 2, 6), (1, 6, 5),  # right
        (3, 0, 4), (3, 4, 7),  # left
    ]
    tris = np.asarray([[v[a], v[b], v[c]] for a, b, c in faces])
    ab = tris[:, 1] - tris[:, 0]
    ac = tris[:, 2] - tris[:, 0]
    n = np.cross(ab, ac)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return TriangleMesh(vertices=tris, normals=n)


@dataclass
class VoxelMesh:
    """Part geometry on a regular grid; layer index = z slice index."""

    occupancy: np.ndarray  # bool (nx, ny, nz)
    pitch_um: tuple[float, float, float]
    origin_mm: tuple[float, float, float]
    exact: bool = True

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    def layer_count(self) -> int:
        return self.occupancy.shape[2]

    def occupied_count(self) -> int:
        return int(self.occupancy.sum())


def voxelize(mesh: TriangleMesh, pitch_um=DEFAULT_PITCH_UM) -> VoxelMesh:
    """Voxelize a mesh: a voxel is occupied iff its center is inside.

    Non-watertight meshes produce a warning and a best-effort result with
    exact=False. The grid starts at the mesh bbox minimum and covers the bbox.
    """
    pitch_mm = np.asarray(pitch_um, dtype=np.float64) / 1000.0
    if np.any(pitch_mm <= 0):
        raise ParameterError("pitch must be positive")
    origin, hi = mesh.bbox
    dims = tuple(int(np.ceil((hi[k] - origin[k]) / pitch_mm[k] - 1e-9)) for k in range(3))
    if min(dims) < 1:
        raise ParameterError(f"empty voxel grid dims {dims}")

    exact = mesh.is_watertight()
    if not exact:
        warnings.warn(
            "mesh is not watertight; voxel occupancy is best-effort", stacklevel=2
        )

    occ = _parity_occupancy(mesh.vertices, origin, pitch_mm, dims)
    return VoxelMesh(
        occupancy=occ,
        pitch_um=tuple(float(p) for p in pitch_um),
        origin_mm=tuple(float(o) for o in origin),
        exact=exact,
    )


RAY_BLOCK = 1 << 16  # (ray, triangle) pairs solved per array pass; bounds memory


def _parity_occupancy(tris, origin, pitch_mm, dims) -> np.ndarray:
    """Parity fill of every x-column of voxel centers, a block of rays at a time."""
    nx, ny, nz = dims
    xc = origin[0] + (np.arange(nx) + 0.5) * pitch_mm[0]
    yc = origin[1] + (np.arange(ny) + 0.5) * pitch_mm[1]
    zc = origin[2] + (np.arange(nz) + 0.5) * pitch_mm[2]
    scale = float(np.abs(tris).max()) + 1.0
    tol = 1e-9 * scale
    rows = max(1, RAY_BLOCK // len(tris))

    occ = np.zeros((nx, ny, nz), dtype=bool)
    for k in range(nz):
        for j0 in range(0, ny, rows):
            occ[:, j0 : j0 + rows, k] = _rays_parity(
                yc[j0 : j0 + rows], zc[k], xc, tris, tol, pitch_mm
            ).T
    return occ


def _ray_hits(py, pz, tris, tol):
    """Barycentric (u, v, w) of each ray (py[:, None], pz) against each triangle's
    yz projection, which triangles it pierces, and which rays sit on an edge or
    on an edge-on triangle (whose projection is a segment), where the parity
    would be ambiguous."""
    ax, ay, az = tris[:, 0, 0], tris[:, 0, 1], tris[:, 0, 2]
    bx, by, bz = tris[:, 1, 0], tris[:, 1, 1], tris[:, 1, 2]
    cx, cy, cz = tris[:, 2, 0], tris[:, 2, 1], tris[:, 2, 2]
    py = py[:, None]
    d = (by - ay) * (cz - az) - (bz - az) * (cy - ay)
    wc = (by - ay) * (pz - az) - (bz - az) * (py - ay)
    wb = (py - ay) * (cz - az) - (pz - az) * (cy - ay)
    nondeg = np.abs(d) > tol
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(nondeg, wb / d, 0.0)
        v = np.where(nondeg, wc / d, 0.0)
    w = 1.0 - u - v
    near_edge = nondeg & (
        (np.abs(u) < 1e-9) | (np.abs(v) < 1e-9) | (np.abs(w) < 1e-9)
        | (np.abs(u - 1) < 1e-9) | (np.abs(v - 1) < 1e-9) | (np.abs(w - 1) < 1e-9)
    )
    inside = nondeg & (u > 0) & (v > 0) & (w > 0)
    ambiguous = near_edge.any(axis=1)
    edge_on = tris[~nondeg, :, 1:]  # a ray is ambiguous only on their segments
    for i, j in ((0, 1), (1, 2), (2, 0)):
        p, (dy, dz) = edge_on[:, i], (edge_on[:, j] - edge_on[:, i]).T
        ry, rz = py - p[:, 0], pz - p[:, 1]
        s = np.clip((ry * dy + rz * dz) / np.maximum(dy * dy + dz * dz, 1e-300), 0.0, 1.0)
        ambiguous |= (np.hypot(ry - s * dy, rz - s * dz) <= tol).any(axis=1)
    return u, v, w, inside, ambiguous


def _rays_parity(y, z, xc, tris, tol, pitch_mm):
    """Parity fill of the x-columns of voxel centers at rays (y[r], z): (len(y), nx).

    An ambiguous ray is moved by a deterministic perturbation that grows per
    attempt, so repeated runs are bit-identical; after six attempts the last
    one stands.
    """
    u, v, w, inside, again = _ray_hits(y, z, tris, tol)
    for attempt in range(5):
        if not again.any():
            break
        eps = 1e-4 * (2.0**attempt)
        redo = np.flatnonzero(again)
        py = y[redo] + eps * pitch_mm[1]
        pz = z + eps * 1.37 * pitch_mm[2]
        u[redo], v[redo], w[redo], inside[redo], still = _ray_hits(py, pz, tris, tol)
        again = np.zeros_like(again)
        again[redo] = still
    ray, tri = np.nonzero(inside)
    x = tris[tri, :, 0]
    xs = w[ray, tri] * x[:, 0] + u[ray, tri] * x[:, 1] + v[ray, tri] * x[:, 2]
    # a crossing at x flips every voxel center xc[i] < x, i.e. i < m
    nx = len(xc)
    m = np.searchsorted(xc, xs, side="left")
    flips = np.bincount(ray * (nx + 1) + m, minlength=len(y) * (nx + 1)).reshape(len(y), nx + 1)
    crossings = np.cumsum(flips[:, ::-1], axis=1)[:, ::-1]  # crossings[:, i] = flips[:, i:].sum()
    return crossings[:, 1:] % 2 == 1


@dataclass(frozen=True)
class PixelGridFrame:
    """Registration of the corrected pixel grid to the plate."""

    pitch_um: float
    origin_px: tuple[int, int]  # pixel coordinates of the plate center
    dims: tuple[int, int]  # (width, height) in pixels

    def __post_init__(self):
        if self.pitch_um <= 0:
            raise ParameterError("pitch must be positive")
        x, y = self.origin_px
        w, h = self.dims
        if not (0 <= x < w and 0 <= y < h):
            raise ParameterError("origin pixel outside frame dims")


@dataclass
class LayerMask:
    """Pixels occupied by the part on one layer plus the voxel registration."""

    layer: int
    pix_x: np.ndarray
    pix_y: np.ndarray
    voxel_indices: np.ndarray  # linear index, x-fastest
    registration: PixelGridFrame

    def __len__(self) -> int:
        return len(self.pix_x)

    def pixel_mask(self) -> np.ndarray:
        """Dense boolean mask (height, width) on the registered frame."""
        w, h = self.registration.dims
        m = np.zeros((h, w), dtype=bool)
        m[self.pix_y, self.pix_x] = True
        return m

    def window(self, pad: int) -> tuple[slice, slice]:
        """(rows, cols) of the mask's pixel bounding box grown by `pad` px and
        clipped to the frame; the whole frame when the mask is empty."""
        w, h = self.registration.dims
        if not len(self):
            return slice(0, h), slice(0, w)
        return (
            slice(max(0, int(self.pix_y.min()) - pad), min(h, int(self.pix_y.max()) + pad + 1)),
            slice(max(0, int(self.pix_x.min()) - pad), min(w, int(self.pix_x.max()) + pad + 1)),
        )


def layer_mask(vox: VoxelMesh, layer: int, reg: PixelGridFrame) -> LayerMask:
    """Register one voxel layer to pixel coordinates (1 voxel = 1 pixel).

    The part-center voxel maps to the registration's origin pixel; pitch
    equality between voxels and pixels is a precondition.
    """
    nx, ny, nz = vox.dims
    if not (0 <= layer < nz):
        raise ParameterError(f"layer {layer} outside [0, {nz})")
    if abs(vox.pitch_um[0] - reg.pitch_um) > 1e-9 or abs(
        vox.pitch_um[1] - reg.pitch_um
    ) > 1e-9:
        raise ParameterError(
            f"voxel in-plane pitch {vox.pitch_um[:2]} must equal pixel pitch {reg.pitch_um}"
        )
    ii, jj = np.nonzero(vox.occupancy[:, :, layer])
    cx, cy = (nx - 1) // 2, (ny - 1) // 2
    px = reg.origin_px[0] + (ii - cx)
    py = reg.origin_px[1] + (jj - cy)
    w, h = reg.dims
    bad = (px < 0) | (px >= w) | (py < 0) | (py >= h)
    if bad.any():
        offenders = list(zip(ii[bad].tolist(), jj[bad].tolist(), [layer] * int(bad.sum())))
        raise OutOfFrameError(
            f"{bad.sum()} voxels on layer {layer} map outside the {w}x{h} frame",
            voxels=offenders,
        )
    linear = ii + nx * (jj + ny * layer)
    order = np.argsort(linear, kind="stable")
    return LayerMask(
        layer=layer,
        pix_x=px[order].astype(np.int64),
        pix_y=py[order].astype(np.int64),
        voxel_indices=linear[order].astype(np.uint32),
        registration=reg,
    )


@dataclass
class SparseFeature:
    """Per-voxel values for one (layer, feature) pair, sorted by voxel index."""

    indices: np.ndarray  # uint32 linear voxel indices, strictly increasing
    values: np.ndarray  # float32


def map_layer_feature(feature, mask: LayerMask) -> SparseFeature:
    """Retain exactly the masked pixels of a feature grid (storage reduction)."""
    f = np.asarray(feature, dtype=np.float64)
    w, h = mask.registration.dims
    if f.shape != (h, w):
        raise ParameterError(
            f"feature shape {f.shape} does not match registration dims {(h, w)}"
        )
    return SparseFeature(
        indices=mask.voxel_indices.copy(),
        values=f[mask.pix_y, mask.pix_x].astype(np.float32),
    )
