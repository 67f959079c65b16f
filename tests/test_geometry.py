import struct

import numpy as np
import pytest

from irmap import geometry
from irmap.errors import OutOfFrameError, ParameterError, StlParseError, StlTruncationError
from irmap.geometry import (
    PixelGridFrame,
    TriangleMesh,
    VoxelMesh,
    box_mesh,
    layer_mask,
    map_layer_feature,
    mesh_to_binary_stl,
    parse_stl,
    voxelize,
)

ASCII_ONE_FACET = """\
solid one
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid one
"""


def sphere_mesh(radius, center, n_theta=48, n_phi=24):
    """Watertight UV sphere triangulation."""
    cx, cy, cz = center
    tris = []
    for i in range(n_phi):
        p0, p1 = np.pi * i / n_phi, np.pi * (i + 1) / n_phi
        for j in range(n_theta):
            t0, t1 = 2 * np.pi * j / n_theta, 2 * np.pi * (j + 1) / n_theta

            def pt(phi, theta):
                return (
                    cx + radius * np.sin(phi) * np.cos(theta),
                    cy + radius * np.sin(phi) * np.sin(theta),
                    cz + radius * np.cos(phi),
                )

            a, b, c, d = pt(p0, t0), pt(p1, t0), pt(p1, t1), pt(p0, t1)
            if i > 0:
                tris.append([a, b, d])
            if i < n_phi - 1:
                tris.append([b, c, d])
    v = np.asarray(tris)
    ab, ac = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    n = np.cross(ab, ac)
    norms = np.linalg.norm(n, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    from irmap.geometry import TriangleMesh

    return TriangleMesh(vertices=v, normals=n / norms)


class TestParse:
    def test_binary_cube(self):
        mesh = box_mesh((1.0, 1.0, 1.0))
        data = mesh_to_binary_stl(mesh)
        back = parse_stl(data)
        assert len(back.vertices) == 12
        lo, hi = back.bbox
        assert np.allclose(lo, 0.0) and np.allclose(hi, 1.0)

    def test_ascii_single_facet(self):
        mesh = parse_stl(ASCII_ONE_FACET.encode())
        assert len(mesh.vertices) == 1
        assert np.allclose(mesh.vertices[0], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_binary_truncation_reports_offset(self):
        data = mesh_to_binary_stl(box_mesh((1.0, 1.0, 1.0)))
        clipped = data[: 84 + 11 * 50 + 17]  # 11 full records + part of the 12th
        with pytest.raises(StlTruncationError) as e:
            parse_stl(clipped)
        assert str(len(clipped)) in str(e.value)

    def test_ascii_bad_token(self):
        bad = ASCII_ONE_FACET.replace("vertex 1 0 0", "vertex one 0 0")
        with pytest.raises(StlParseError) as e:
            parse_stl(bad.encode())
        assert "line" in str(e.value).lower()


class TestVoxelize:
    def test_box_exact_count(self):
        mesh = box_mesh((3.6, 3.6, 0.4))
        vox = voxelize(mesh, (360.0, 360.0, 40.0))
        assert vox.occupied_count() == 1000
        assert vox.exact

    def test_translation_by_whole_pitch(self):
        """On one fixed grid, a box moved by one pitch along x fills the same
        voxels moved by one index; `voxelize` itself grids each box's own bbox,
        which gives both the same occupancy."""
        base = box_mesh((3.6, 3.6, 0.4))
        moved = TriangleMesh(base.vertices + (0.36, 0.0, 0.0), base.normals)
        pitch_mm = np.array([0.36, 0.36, 0.04])
        occ0, occ1 = (
            geometry._parity_occupancy(m.vertices, np.zeros(3), pitch_mm, (11, 10, 10))
            for m in (base, moved)
        )
        assert occ1.sum() == occ0.sum() == 1000
        i0, j0, k0 = np.nonzero(occ0)
        i1, j1, k1 = np.nonzero(occ1)
        assert np.array_equal(np.sort(i0) + 1, np.sort(i1))
        assert np.array_equal(np.sort(j0), np.sort(j1))
        assert np.array_equal(np.sort(k0), np.sort(k1))
        vox0, vox1 = (voxelize(m, (360.0, 360.0, 40.0)) for m in (base, moved))
        assert np.array_equal(vox0.occupancy, vox1.occupancy)
        assert vox1.origin_mm[0] == pytest.approx(vox0.origin_mm[0] + 0.36)

    def test_sphere_volume(self):
        r = 1.8
        mesh = sphere_mesh(r, (2.0, 2.0, 2.0))
        assert mesh.is_watertight()
        vox = voxelize(mesh, (360.0, 360.0, 40.0))
        voxel_mm3 = 0.36 * 0.36 * 0.04
        analytic = 4.0 / 3.0 * np.pi * r**3
        assert vox.occupied_count() * voxel_mm3 == pytest.approx(analytic, rel=0.05)

    def test_reproducible(self):
        mesh = sphere_mesh(1.0, (1.2, 1.2, 1.2), n_theta=24, n_phi=12)
        a = voxelize(mesh, (360.0, 360.0, 40.0))
        b = voxelize(mesh, (360.0, 360.0, 40.0))
        assert np.array_equal(a.occupancy, b.occupancy)

    def test_non_watertight_flagged(self):
        from irmap.geometry import TriangleMesh

        full = box_mesh((3.6, 3.6, 0.4))
        # drop the top face: still a volume, no longer watertight
        mesh = TriangleMesh(vertices=full.vertices[:-2], normals=full.normals[:-2])
        assert not mesh.is_watertight()
        with pytest.warns(UserWarning, match="not watertight"):
            vox = voxelize(mesh, (360.0, 360.0, 40.0))
        assert not vox.exact


class TestLayerMask:
    def reg(self):
        return PixelGridFrame(pitch_um=360.0, origin_px=(32.0, 24.0), dims=(64, 48))

    def test_center_voxel_maps_to_origin(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        m = layer_mask(vox, 0, self.reg())
        nx, ny, _ = vox.dims
        cx, cy = (nx - 1) // 2, (ny - 1) // 2
        vox_i, vox_j = m.voxel_indices % nx, m.voxel_indices // nx % ny
        k = np.flatnonzero((vox_i == cx) & (vox_j == cy))[0]
        assert (m.pix_x[k], m.pix_y[k]) == (32, 24)
        k1 = np.flatnonzero((vox_i == cx + 1) & (vox_j == cy))[0]
        assert (m.pix_x[k1], m.pix_y[k1]) == (33, 24)

    def test_slab_contiguous_block(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        m = layer_mask(vox, 0, self.reg())
        assert len(m) == 100
        dense = m.pixel_mask()
        ys, xs = np.nonzero(dense)
        assert dense.sum() == 100
        assert xs.max() - xs.min() == 9 and ys.max() - ys.min() == 9

    def test_out_of_frame_lists_voxels(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        tiny = PixelGridFrame(pitch_um=360.0, origin_px=(2.0, 2.0), dims=(6, 6))
        with pytest.raises(OutOfFrameError) as e:
            layer_mask(vox, 0, tiny)
        assert e.value.voxels

    def test_pitch_mismatch_rejected(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        reg = PixelGridFrame(pitch_um=100.0, origin_px=(32.0, 24.0), dims=(64, 48))
        with pytest.raises(ParameterError):
            layer_mask(vox, 0, reg)

    def test_window_pads_bounding_box(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        m = layer_mask(vox, 0, self.reg())  # pixels x 28..37, y 20..29
        assert m.window(12) == (slice(8, 42), slice(16, 50))

    def test_window_clips_at_frame_edge(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        corner = PixelGridFrame(pitch_um=360.0, origin_px=(6.0, 42.0), dims=(64, 48))
        m = layer_mask(vox, 0, corner)  # pixels x 2..11, y 38..47
        assert m.window(12) == (slice(26, 48), slice(0, 24))

    def test_empty_mask_window_is_whole_frame(self):
        box = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        above = np.zeros((10, 10, 2), dtype=bool)  # two empty layers on top of the box
        vox = VoxelMesh(np.concatenate([box.occupancy, above], axis=2), box.pitch_um, box.origin_mm)
        m = layer_mask(vox, 11, self.reg())
        assert len(m) == 0
        assert m.window(12) == (slice(0, 48), slice(0, 64))


class TestMapFeature:
    def test_values_and_reduction(self, rng):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        reg = PixelGridFrame(pitch_um=360.0, origin_px=(32.0, 24.0), dims=(64, 48))
        m = layer_mask(vox, 2, reg)
        feature = rng.normal(size=(48, 64))
        sp = map_layer_feature(feature, m)
        assert len(sp.indices) == len(m)
        assert (np.diff(sp.indices.astype(np.int64)) > 0).all()
        assert np.allclose(sp.values, feature[m.pix_y, m.pix_x].astype(np.float32))

    def test_dim_mismatch(self):
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        reg = PixelGridFrame(pitch_um=360.0, origin_px=(32.0, 24.0), dims=(64, 48))
        m = layer_mask(vox, 0, reg)
        with pytest.raises(ParameterError):
            map_layer_feature(np.zeros((10, 10)), m)
