"""The whole-array kernels match their one-at-a-time oracles byte for byte."""

import numpy as np
import pytest

import oracles
from irmap import geometry, imageops
from irmap.errors import DegenerateHistogramError, ParameterError
from irmap.geometry import TriangleMesh, box_mesh, voxelize
from test_geometry import icosphere_mesh, sphere_mesh

PITCH_UM = (360.0, 360.0, 40.0)
PITCH_MM = np.asarray(PITCH_UM) / 1000.0
ICOSPHERE_PITCH_UM = (360.0, 360.0, 400.0)


def _binaries(rng):
    """Edge-case grids first, then random ones of every size and density."""
    grids = [
        np.zeros((6, 6), dtype=np.uint8),
        np.ones((7, 5), dtype=np.uint8),
        np.ones((1, 1), dtype=np.uint8),
        np.zeros((1, 1), dtype=np.uint8),
        (rng.random((1, 40)) < 0.5).astype(np.uint8),
        (rng.random((40, 1)) < 0.5).astype(np.uint8),
        np.ones((1, 17), dtype=np.uint8),
        np.ones((17, 1), dtype=np.uint8),
        (np.indices((9, 12)).sum(axis=0) % 2).astype(np.uint8),  # checkerboard
        (np.indices((12, 9)).sum(axis=0) % 2 == 0).astype(np.uint8),
    ]
    for _ in range(200):
        h, w = rng.integers(1, 33, size=2)
        grids.append((rng.random((h, w)) < rng.uniform(0.05, 0.95)).astype(np.uint8))
    return grids


class TestLabelComponents:
    def test_matches_union_find_oracle(self, rng):
        grids = _binaries(rng)
        assert len(grids) >= 200
        for b in grids:
            for conn in (4, 8):
                got = imageops.label_components(b, conn)
                want = oracles.label_components(b, conn)
                assert got.labels.dtype == want.labels.dtype
                assert got.labels.tobytes() == want.labels.tobytes()
                assert got.count == want.count and isinstance(got.count, int)

    def test_bool_and_int_inputs_agree(self, rng):
        b = rng.random((20, 30)) < 0.4
        for conn in (4, 8):
            assert np.array_equal(
                imageops.label_components(b, conn).labels,
                imageops.label_components(b.astype(np.int64), conn).labels,
            )

    def test_stack_labels_each_plane_on_its_own(self, rng):
        for _ in range(30):
            k, h, w = rng.integers(1, 12), rng.integers(1, 20), rng.integers(1, 20)
            stack = rng.random((k, h, w)) < rng.uniform(0.1, 0.9)
            stack[rng.integers(k)] = False  # an empty plane among the others
            for conn in (4, 8):
                got = imageops.label_components(stack, conn)
                assert got.labels.shape == stack.shape
                assert got.count.shape == (k,)
                for t in range(k):
                    want = oracles.label_components(stack[t].astype(np.uint8), conn)
                    assert got.labels[t].tobytes() == want.labels.tobytes()
                    assert got.count[t] == want.count

    def test_clusters_never_join_across_planes(self):
        stack = np.ones((3, 4, 4), dtype=bool)
        out = imageops.label_components(stack, 8)
        assert out.count.tolist() == [1, 1, 1]
        assert (out.labels == 1).all()

    def test_bad_inputs_rejected(self):
        with pytest.raises(ParameterError):
            imageops.label_components(np.ones(5, dtype=bool))
        with pytest.raises(ParameterError):
            imageops.label_components(np.full((2, 3, 3), 2))
        with pytest.raises(ParameterError):
            imageops.label_components(np.ones((3, 3)), connectivity=6)


def _on_ray_tetrahedron():
    """A tetrahedron whose four vertices lie exactly on voxel-center rays."""
    yc = (np.arange(10) + 0.5) * PITCH_MM[1]
    zc = (np.arange(10) + 0.5) * PITCH_MM[2]
    p = np.array(
        [[0.3, yc[1], zc[1]], [2.5, yc[8], zc[2]], [1.0, yc[3], zc[8]], [2.0, yc[7], zc[6]]]
    )
    tris = p[[(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]]
    return TriangleMesh(vertices=tris, normals=np.zeros((4, 3)))


def _meshes():
    box = box_mesh((3.6, 3.6, 0.4))
    open_box = TriangleMesh(vertices=box.vertices[:-2], normals=box.normals[:-2])
    return {
        "box": (box, None, None),
        "translated box": (TriangleMesh(box.vertices + (0.36, 0.11, 0.013), box.normals), (0.0, 0.0, 0.0), (14, 14, 14)),
        "sphere": (sphere_mesh(1.8, (2.0, 2.0, 2.0)), None, None),
        "small sphere": (sphere_mesh(1.0, (1.2, 1.2, 1.2), n_theta=24, n_phi=12), None, None),
        "open box": (open_box, None, None),
        "on-ray tetrahedron": (_on_ray_tetrahedron(), (0.0, 0.0, 0.0), (10, 10, 10)),
        # its y = 0.18 face is edge-on and lies on a row of voxel-center rays
        "on-ray box": (TriangleMesh(box.vertices + (0.0, 0.18, 0.0), box.normals), (0.0, 0.0, 0.0), (12, 12, 12)),
    }


def _icosphere():
    """The 5,120-triangle icosphere of radius 10 mm. Its x = 10 mm mirror plane
    joins mirrored vertices by x-parallel edges, so it holds edge-on triangles."""
    return icosphere_mesh(10.0, (10.0, 10.0, 10.0), 4)


def _moved(mesh, seed):
    """`mesh` under a seeded rigid motion: a rotation, then a shift of less
    than one pitch along each axis."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return TriangleMesh(mesh.vertices @ q.T + rng.uniform(0, 1, 3) * PITCH_MM, mesh.normals @ q.T)


def _retried_passes(monkeypatch, mesh, origin, dims):
    """The occupancy, and the ray count of each perturbed `_pair_hits` pass:
    a first pass holds rays on the voxel-center layers, a retry none."""
    origin = np.asarray(origin)
    zc = origin[2] + (np.arange(dims[2]) + 0.5) * PITCH_MM[2]
    retried = []
    hits = geometry._pair_hits

    def spy(py, pz, tri, terms, tol):
        if not np.isin(pz, zc).any():
            retried.append(len(set(zip(py.tolist(), pz.tolist()))))
        return hits(py, pz, tri, terms, tol)

    monkeypatch.setattr(geometry, "_pair_hits", spy)
    return geometry._parity_occupancy(mesh.vertices, origin, PITCH_MM, dims), retried


def _grid(mesh, origin, dims, pitch_um=PITCH_UM):
    """The origin, dims and occupancy of the grid: `voxelize`'s own grid over
    the mesh bbox when `origin` is None, else the given one."""
    if origin is None:
        vox = voxelize(mesh, pitch_um)
        return np.asarray(vox.origin_mm), vox.dims, vox.occupancy
    origin = np.asarray(origin, dtype=np.float64)
    return origin, dims, geometry._parity_occupancy(mesh.vertices, origin, np.asarray(pitch_um) / 1000.0, dims)


class TestParityOccupancy:
    @pytest.mark.filterwarnings("ignore:mesh is not watertight")
    @pytest.mark.parametrize("name", list(_meshes()))
    def test_matches_column_oracle(self, name):
        mesh, origin, dims = _meshes()[name]
        origin, dims, occ = _grid(mesh, origin, dims)
        want = oracles.parity_occupancy(mesh.vertices, origin, PITCH_MM, dims)
        assert want.any()
        assert occ.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:mesh is not watertight")
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", list(_meshes()))
    def test_rigid_motion_matches_column_oracle(self, name, seed):
        mesh = _moved(_meshes()[name][0], seed)
        origin, dims, occ = _grid(mesh, None, None)
        want = oracles.parity_occupancy(mesh.vertices, origin, PITCH_MM, dims)
        assert want.any()
        assert occ.tobytes() == want.tobytes()

    def test_icosphere_matches_column_oracle(self):
        pitch_um = (720.0, 720.0, 800.0)  # 700 rays keep the one-ray oracle short
        for mesh in (_icosphere(), _moved(_icosphere(), 1)):  # on and off the grid's symmetry
            assert len(mesh.vertices) == 5120 and mesh.is_watertight()
            vox = voxelize(mesh, pitch_um)
            origin, pitch_mm = np.asarray(vox.origin_mm), np.asarray(pitch_um) / 1000.0
            want = oracles.parity_occupancy(mesh.vertices, origin, pitch_mm, vox.dims)
            assert want.any() and not want.all()
            assert vox.occupancy.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:mesh is not watertight")
    @pytest.mark.parametrize("name", [*_meshes(), "icosphere"])
    def test_ray_blocks_do_not_change_occupancy(self, name, monkeypatch):
        if name == "icosphere":  # 2,800 rays at a 400 um layer pitch
            (mesh, origin, dims), pitch_um = (_icosphere(), None, None), ICOSPHERE_PITCH_UM
        else:
            (mesh, origin, dims), pitch_um = _meshes()[name], PITCH_UM
        origin, dims, want = _grid(mesh, origin, dims, pitch_um)
        # one ray a pass, or a few rays whose passes start and end inside rows
        for block in (1, 37):
            monkeypatch.setattr(geometry, "RAY_BLOCK", block)
            occ = geometry._parity_occupancy(mesh.vertices, origin, np.asarray(pitch_um) / 1000.0, dims)
            assert occ.tobytes() == want.tobytes(), block

    def test_solves_only_the_pairs_that_can_meet(self, monkeypatch):
        mesh, pitch_um = _icosphere(), ICOSPHERE_PITCH_UM
        pairs = []
        hits = geometry._pair_hits

        def spy(py, pz, tri, terms, tol):
            pairs.append(len(tri))
            return hits(py, pz, tri, terms, tol)

        monkeypatch.setattr(geometry, "_pair_hits", spy)
        nx, ny, nz = voxelize(mesh, pitch_um).dims
        assert pairs and sum(pairs) <= 0.01 * ny * nz * len(mesh.vertices)

    def test_on_ray_mesh_takes_the_retry_path(self, monkeypatch):
        mesh, origin, dims = _meshes()["on-ray tetrahedron"]
        attempts = []
        want = oracles.parity_occupancy(mesh.vertices, origin, PITCH_MM, dims, attempts)
        assert min(attempts) == 0 and max(attempts) > 0

        occ, retried = _retried_passes(monkeypatch, mesh, origin, dims)
        assert retried  # a second, perturbed pass ...
        assert max(retried) < dims[1] * dims[2]  # ... over the ambiguous rays only
        assert occ.tobytes() == want.tobytes()

    def test_edge_on_faces_off_the_rays_take_no_retry(self, monkeypatch):
        # the demo box: its x-parallel faces project to segments no voxel-center
        # ray is on, and no ray crosses an edge of its other faces
        mesh = box_mesh((19.44, 19.44, 0.8))
        occ, retried = _retried_passes(monkeypatch, mesh, (0.0, 0.0, 0.0), (54, 54, 20))
        assert not retried
        assert occ.all()

    def test_ray_on_an_edge_on_face_takes_the_retry_path(self, monkeypatch):
        mesh, origin, dims = _meshes()["on-ray box"]
        occ, retried = _retried_passes(monkeypatch, mesh, origin, dims)
        assert retried and max(retried) < dims[1] * dims[2]
        want = oracles.parity_occupancy(mesh.vertices, origin, PITCH_MM, dims)
        assert occ.tobytes() == want.tobytes()

    def test_edge_on_face_alone_takes_the_retry_path(self, monkeypatch):
        # an open mesh: a face in the plane x = 1 mm, and an edge-on wall whose
        # segment holds five voxel-center rays that cross the face on no edge
        y = (5 + 0.5) * PITCH_MM[1]
        face = [(1.0, 0.0, -0.01), (1.0, 3.6, -0.01), (1.0, 1.8, 0.41)]
        wall = [(0.5, y, 0.05), (1.5, y, 0.05), (1.5, y, 0.25)]
        origin, dims = np.zeros(3), (10, 10, 10)
        face_only = TriangleMesh(np.array([face]), np.zeros((1, 3)))
        alone, retried = _retried_passes(monkeypatch, face_only, origin, dims)
        assert alone.any() and not retried
        mesh = TriangleMesh(np.array([face, wall]), np.zeros((2, 3)))
        occ, retried = _retried_passes(monkeypatch, mesh, origin, dims)
        assert retried == [5]
        assert occ.tobytes() == alone.tobytes()
        assert occ.tobytes() == oracles.parity_occupancy(mesh.vertices, origin, PITCH_MM, dims).tobytes()

    @pytest.mark.parametrize("name", list(_meshes()))
    def test_is_watertight_matches_edge_count_oracle(self, name):
        mesh = _meshes()[name][0]
        assert mesh.is_watertight() is oracles.is_watertight(mesh)

    def test_is_watertight_joins_signed_zero_vertices(self):
        unit = box_mesh((1.0, 1.0, 1.0))
        box = TriangleMesh(unit.vertices + (-0.5, -0.5, 0.0), unit.normals)
        flipped = box.vertices.copy()
        flipped[0][flipped[0] == 0.0] = -0.0
        mesh = TriangleMesh(vertices=flipped, normals=box.normals)
        assert mesh.is_watertight() and oracles.is_watertight(mesh)


def _otsu_images(rng):
    lo, hi = -3.7, 91.25
    edges = np.linspace(lo, hi, imageops.OTSU_BINS + 1)
    yield edges.reshape(1, -1)  # every value on a bin edge
    yield np.concatenate([edges, edges[::7], np.full(5, hi)]).reshape(1, -1)
    yield np.array([[0.0, 255.0], [255.0, 0.0]])
    yield np.where(rng.random((9, 11)) < 0.3, 1e-9, 2e-9)  # two values, tiny span
    yield np.where(rng.random((9, 11)) < 0.7, -5.0, 1e12)  # two values, huge span
    for _ in range(100):
        img = rng.normal(100, 40, size=rng.integers(1, 40, size=2))
        if rng.random() < 0.5:
            img = np.round(img)  # many ties, some on bin edges
        if img.size > 1 and rng.random() < 0.5:
            img.flat[: rng.integers(1, img.size)] += rng.uniform(50, 300)
        yield img


class TestOtsu:
    def test_matches_histogram_oracle(self, rng):
        for img in _otsu_images(rng):
            if img.min() == img.max():
                continue
            assert imageops.otsu_thresholds(img) == oracles.otsu_thresholds(img)

    @pytest.mark.parametrize("img", [np.full((8, 8), 3.0), np.zeros((1, 1)), np.full((1, 5), -2.5)])
    def test_degenerate_histogram_raises_like_oracle(self, img):
        with pytest.raises(DegenerateHistogramError):
            oracles.otsu_thresholds(img)
        with pytest.raises(DegenerateHistogramError):
            imageops.otsu_thresholds(img)


class TestReflectCorrelation:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_filters_match_np_pad_oracle(self, rng, sigma):
        for shape in [(1, 1), (1, 7), (7, 1), (2, 3), (5, 30), (40, 33)]:
            a = rng.normal(0, 50, size=shape)
            grad = imageops.gaussian_gradient_magnitude(a, sigma)
            log = imageops.gaussian_laplace(a, sigma)
            assert grad.flags.c_contiguous and log.flags.c_contiguous
            assert grad.tobytes() == oracles.gaussian_gradient_magnitude(a, sigma).tobytes()
            assert log.tobytes() == oracles.gaussian_laplace(a, sigma).tobytes()


def _median_arrays(rng):
    """Odd and even sizes, ties, signed zeros, and the 78x78 frame shape."""
    arrays = [
        np.array([3.0]),
        np.array([2.0, 1.0]),
        np.array([-0.0]),
        np.array([-0.0, -0.0]),
        np.array([0.0, -0.0, 0.0]),
        np.array([-0.0, 0.0, -0.0, 0.0]),
        np.array([-1.0, -0.0, 0.0, 1.0]),
        np.full(7, 5.0),
        np.full(8, 5.0),
        np.array([1.0, 1.0, 2.0, 2.0]),
        rng.normal(size=(78, 78)),
        rng.normal(size=(77, 78)),
    ]
    for n in range(1, 201):
        if n % 3 == 0:
            arrays.append(rng.normal(size=n))
        elif n % 3 == 1:
            arrays.append(rng.integers(-3, 4, size=n).astype(float))  # many ties
        else:
            arrays.append(rng.choice([-1.0, -0.0, 0.0, 1.0], size=n))
    return arrays


class TestMedian:
    def test_matches_numpy(self, rng):
        for a in _median_arrays(rng):
            got, want = imageops.median(a), float(np.median(a))
            assert got == want
            if want != 0.0:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_zero_median_is_positive(self):
        # np.median's sign of a zero result depends on the numpy version; the
        # detector only subtracts the median under abs() and compares with it,
        # so the sign never reaches an output
        for a in ([-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [-1.0, -0.0, 0.0, 1.0]):
            assert not np.signbit(imageops.median(np.array(a)))
