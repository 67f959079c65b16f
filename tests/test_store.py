import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from irmap.errors import (
    FeatureNotFoundError,
    ParameterError,
    StoreCorruptionError,
    StoreFormatError,
)
from irmap.geometry import SparseFeature
from irmap.store import (
    FeatureStore,
    StoreMeta,
    export_grid,
    parse_vtk,
    read_layer_stack,
    read_store,
    reduction_report,
    write_layer_stack,
    write_store,
)


def random_store(rng, layers=10, features=10):
    nx, ny = int(rng.integers(4, 12)), int(rng.integers(4, 12))
    meta = StoreMeta(
        pitch_um=(360.0, 360.0, 40.0),
        dims=(nx, ny, layers),
        parts=[(1, "part-a"), (2, "b")],
    )
    fs = FeatureStore(meta)
    for layer in range(layers):
        for fid in range(features):
            if rng.random() < 0.3:
                continue
            n = int(rng.integers(0, nx * ny))
            idx = (nx * ny * layer + np.sort(rng.choice(nx * ny, size=n, replace=False))).astype(np.uint32)
            vals = rng.normal(size=n).astype(np.float32)
            fs.add(layer, fid, SparseFeature(indices=idx, values=vals))
    return fs


def edge_store():
    """A 4x3x3 store whose blocks hold the values text formatting can get
    wrong: (layer 0, feature 0) NaN, +-inf, -0.0, a float32 subnormal and
    float32 max; feature 1 no entries; feature 2 only NaN; feature 3 one
    entry; and (layer 2, feature 0) a block above layer 0."""
    fs = FeatureStore(StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 3, 3)))
    f32 = np.finfo(np.float32)
    edge = [np.nan, np.inf, -np.inf, -0.0, 1e-45, f32.max, -f32.max, 0.1, 1.0]
    blocks = {
        (0, 0): (np.arange(len(edge)), edge),
        (0, 1): ([], []),
        (0, 2): ([0, 5, 11], [np.nan] * 3),
        (0, 3): ([7], [2.5]),
        (2, 0): (2 * 12 + np.arange(0, 12, 2), [np.nan, -0.0, 1e-45, 3.25, -np.inf, 0.3]),
    }
    for (layer, fid), (idx, vals) in blocks.items():
        fs.add(layer, fid, SparseFeature(np.asarray(idx, np.uint32), np.asarray(vals, np.float32)))
    return fs


def _store_bytes(part=b"part", blocks=((0, 1, (1, 2)),)):
    """A one-part IRVX store on a 4x4x1 grid, written field by field, so it
    may break the layout's rules: blocks are (layer, feature, indices)."""
    out = b"IRVX" + struct.pack("<I3f3II", 1, 360.0, 360.0, 40.0, 4, 4, 1, 1)
    out += struct.pack("<HH", 1, len(part)) + part + struct.pack("<I", len(blocks))
    for layer, fid, idx in blocks:
        out += struct.pack("<IBI", layer, fid, len(idx)) + b"".join(struct.pack("<If", i, 0.0) for i in idx)
    return out


# stores whose bytes are all there but break a rule of the layout
MALFORMED_STORES = {
    "part-name-not-utf8": (_store_bytes(part=b"\xffart"), "not UTF-8"),
    "repeated-block": (_store_bytes(blocks=((0, 1, (1,)), (0, 1, (2,)))), "already present"),
    "decreasing-indices": (_store_bytes(blocks=((0, 1, (3, 1)),)), "strictly increasing"),
    "indices-outside-the-layer": (_store_bytes(blocks=((0, 1, (3, 16)),)), "in its layer's plane"),
    "layer-outside-the-grid": (
        _store_bytes(blocks=((5, 1, (80, 81)),)),  # in layer 5's plane, above the 1-layer grid
        "is outside the grid's 1 layers",
    ),
}


def stores_equal(a, b):
    if a.meta != b.meta or set(a.blocks) != set(b.blocks):
        return False
    for key, sp in a.blocks.items():
        other = b.blocks[key]
        if not np.array_equal(sp.indices, other.indices):
            return False
        if sp.values.tobytes() != other.values.tobytes():
            return False
    return True


class TestRoundTrip:
    def test_empty_store(self):
        meta = StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 4, 2))
        fs = FeatureStore(meta)
        assert stores_equal(read_store(write_store(fs)), fs)

    def test_random_stores_bit_exact(self, rng):
        for _ in range(100):
            fs = random_store(rng)
            data = write_store(fs)
            back = read_store(data)
            assert stores_equal(back, fs)
            assert write_store(back) == data

    def test_unknown_feature_id_preserved(self, rng):
        fs = random_store(rng, layers=2, features=3)
        fs.add(0, 200, SparseFeature(np.array([5], np.uint32), np.array([1.5], np.float32)))
        back = read_store(write_store(fs))
        sp = back.get(0, 200)
        assert sp.indices[0] == 5 and sp.values[0] == 1.5

    def test_duplicate_block_rejected(self, rng):
        fs = random_store(rng, layers=1, features=1)
        fs.blocks.clear()
        sp = SparseFeature(np.array([1], np.uint32), np.array([0.0], np.float32))
        fs.add(0, 0, sp)
        with pytest.raises(ParameterError):
            fs.add(0, 0, sp)

    def test_unsorted_indices_rejected(self):
        meta = StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 4, 1))
        fs = FeatureStore(meta)
        sp = SparseFeature(np.array([3, 1], np.uint32), np.zeros(2, np.float32))
        with pytest.raises(ParameterError):
            fs.add(0, 0, sp)


    @pytest.mark.parametrize("indices", [[0], [24, 36]], ids=["below", "above"])
    def test_indices_outside_the_layer_rejected(self, indices):
        fs = FeatureStore(StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 3, 3)))
        sp = SparseFeature(np.array(indices, np.uint32), np.full(len(indices), 5.0, np.float32))
        with pytest.raises(ParameterError, match=r"layer's plane \[24, 36\)"):
            fs.add(2, 0, sp)
        fs.blocks[(2, 0)] = sp  # the block `add` refused, written as it stands
        with pytest.raises(StoreCorruptionError, match=r"layer's plane \[24, 36\)"):
            read_store(write_store(fs))


    def test_layer_outside_the_grid_rejected(self):
        fs = FeatureStore(StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 4, 1)))
        sp = SparseFeature(np.array([80, 81], np.uint32), np.ones(2, np.float32))
        with pytest.raises(ParameterError, match=r"block \(5, 1\) is outside the grid's 1 layers"):
            fs.add(5, 1, sp)
        fs.blocks[(5, 1)] = sp  # the block `add` refused, written as it stands
        with pytest.raises(StoreCorruptionError, match=r"\(5, 1\)") as e:
            read_store(write_store(fs))
        assert (e.value.layer, e.value.feature_id) == (5, 1)


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(StoreFormatError):
            read_store(b"NOPE" + b"\0" * 64)

    def test_truncated_block_names_layer_and_feature(self, rng):
        fs = random_store(rng, layers=3, features=4)
        data = write_store(fs)
        last_key = sorted(fs.blocks)[-1]
        clipped = data[:-3]
        with pytest.raises(StoreCorruptionError) as e:
            read_store(clipped)
        msg = str(e.value)
        assert str(last_key[0]) in msg and str(last_key[1]) in msg

    def test_bounded_reads_on_huge_declared_count(self):
        meta = StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 4, 1))
        fs = FeatureStore(meta)
        fs.add(0, 0, SparseFeature(np.array([1], np.uint32), np.ones(1, np.float32)))
        data = bytearray(write_store(fs))
        # inflate the declared entry count of the single block
        count_pos = len(data) - 8 - 4  # one 8-byte entry, count just before it
        data[count_pos : count_pos + 4] = struct.pack("<I", 2**31)
        with pytest.raises(StoreCorruptionError):
            read_store(bytes(data))

    @pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
    def test_rule_breaking_store_is_corrupt(self, case):
        data, message = MALFORMED_STORES[case]
        with pytest.raises(StoreCorruptionError, match=message):
            read_store(data)


class TestExports:
    def single_voxel_store(self):
        meta = StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(3, 3, 2))
        fs = FeatureStore(meta)
        fs.add(
            1, 4, SparseFeature(np.array([9 + 4], np.uint32), np.array([2.5], np.float32))
        )
        return fs

    def test_csv_single_row(self):
        fs = self.single_voxel_store()
        body = export_grid(fs, 1, 4, "csv").decode().strip().splitlines()
        assert body[0] == "i,j,layer,value"
        assert len(body) == 2
        i, j, layer, value = body[1].split(",")
        assert (int(i), int(j), int(layer)) == (1, 1, 1)
        assert float(value) == 2.5

    def test_vtk_self_parse(self, rng):
        fs = random_store(rng, layers=2, features=2)
        key = sorted(fs.blocks)[0]
        data = export_grid(fs, key[0], key[1], "vtk")
        dims, values = parse_vtk(data)
        nx, ny, _ = fs.meta.dims
        assert dims == (nx, ny, 1)
        grid = np.full(nx * ny, np.nan, dtype=np.float32)
        sp = fs.blocks[key]
        grid[sp.indices.astype(np.int64) - nx * ny * key[0]] = sp.values
        filled = np.nan_to_num(grid, nan=0.0)
        got = np.nan_to_num(values.reshape(-1), nan=0.0)
        assert np.allclose(got, filled, atol=1e-6)

    def test_pgm_header(self):
        fs = self.single_voxel_store()
        data = export_grid(fs, 1, 4, "pgm-heatmap")
        assert data.startswith(b"P5")
        assert b"65535" in data.split(b"\n")[2] or b"65535" in data.split(b"\n")[1]

    @pytest.mark.parametrize("fmt, oracle", [("csv", oracles.export_csv), ("vtk", oracles.export_vtk)])
    def test_text_exports_match_oracle(self, rng, fmt, oracle):
        for fs in (random_store(rng), edge_store()):
            for key in fs.blocks:
                assert export_grid(fs, *key, fmt) == oracle(fs, *key), f"block {key}"

    def test_csv_values_round_trip(self):
        fs = edge_store()
        rows = export_grid(fs, 0, 0, "csv").decode().splitlines()[1:]
        want = fs.blocks[(0, 0)].values[1:].astype(np.float64)  # the NaN row is omitted
        got = np.array([float(r.split(",")[3]) for r in rows])
        assert got.tobytes() == want.tobytes()  # -0.0 and the subnormal keep their bits

    @pytest.mark.parametrize("fid", [1, 2], ids=["empty", "all-nan"])
    def test_pgm_of_block_without_values_is_zero(self, fid):
        assert export_grid(edge_store(), 0, fid, "pgm-heatmap") == b"P5\n4 3\n65535\n" + bytes(2 * 12)

    def test_absent_pair(self):
        fs = self.single_voxel_store()
        with pytest.raises(FeatureNotFoundError):
            export_grid(fs, 0, 0, "csv")


class TestReduction:
    def test_paper_scale_arithmetic(self):
        raw_frames = [200] * 20  # 640x480 u16, 200 frames x 20 layers
        stored = 3000 * 10 * 8 * 20  # sparse part pixels x features
        rep = reduction_report((640, 480), raw_frames, stored)
        assert rep.ratio == pytest.approx(0.998, abs=0.002)
        assert rep.meets_99_percent

    def test_stored_equals_raw(self):
        raw = 640 * 480 * 2 * 10
        rep = reduction_report((640, 480), [10], raw)
        assert rep.ratio == 0.0

    def test_monotone_in_stored_bytes(self):
        r1 = reduction_report((64, 64), [5], 1000)
        r2 = reduction_report((64, 64), [5], 2000)
        assert r2.ratio < r1.ratio


def _read_whole(path, h: int, w: int):
    """`read_layer_stack` of a file of w x h px frames, keeping every pixel."""
    return read_layer_stack(str(path), (slice(0, h), slice(0, w)), (w, h))


class TestLayerStack:
    def test_round_trip(self, tmp_path, rng):
        frames = rng.integers(0, 65535, size=(7, 12, 16)).astype(np.uint16)
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), frames, fps=30.0)
        back, fps = _read_whole(path, 12, 16)
        assert fps == 30.0
        assert np.array_equal(back, frames)
        # the header's reserved last u32 (bytes 24..28) is always written as 0
        assert path.read_bytes()[24:28] == b"\0\0\0\0"

    def test_frames_written_one_at_a_time(self, tmp_path, rng):
        frames = rng.integers(0, 65535, size=(5, 6, 7)).astype(np.uint16)
        whole, single = tmp_path / "whole.irfs", tmp_path / "single.irfs"
        write_layer_stack(str(whole), frames, fps=25.0)
        write_layer_stack(str(single), (frame for frame in frames), fps=25.0)
        assert single.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize(
        "frames",
        [np.ones((3, 4)), [np.ones((3, 4)), np.ones((4, 3))], np.ones((0, 3, 4))],
        ids=["2d", "ragged", "empty"],
    )
    def test_bad_frames_rejected(self, tmp_path, frames):
        with pytest.raises(ParameterError):
            write_layer_stack(str(tmp_path / "layer_0000.irfs"), frames)

    def test_window_read_is_the_whole_frame_slice(self, tmp_path, rng):
        path = tmp_path / "layer_0000.irfs"
        for n in (1, 2, 9):
            h, w = int(rng.integers(5, 12)), int(rng.integers(5, 12))
            frames = rng.integers(0, 65536, size=(n, h, w)).astype("<u2")
            write_layer_stack(str(path), frames)
            whole, _ = _read_whole(path, h, w)
            assert whole.dtype == np.dtype("<u2") and whole.tobytes() == frames.tobytes()
            # every corner, every edge, the middle and the whole frame
            spans = lambda size: [(0, 2), (1, size - 1), (size - 2, size), (0, size)]
            for r0, r1 in spans(h):
                for c0, c1 in spans(w):
                    window = (slice(r0, r1), slice(c0, c1))
                    part, _ = read_layer_stack(str(path), window, (w, h))
                    assert part.dtype == np.dtype("<u2") and part.shape == (n, r1 - r0, c1 - c0)
                    assert part.tobytes() == frames[:, r0:r1, c0:c1].tobytes(), window
            single, _ = read_layer_stack(str(path), (slice(h - 1, h), slice(w - 1, w)), (w, h))
            assert single.tobytes() == frames[:, -1:, -1:].tobytes()

    def test_frame_dims_checked(self, tmp_path):
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), np.ones((2, 3, 4)))
        assert _read_whole(path, 3, 4)[0].shape == (2, 3, 4)
        with pytest.raises(StoreFormatError, match="frames are 4x3 px, expected 3x4"):
            _read_whole(path, 4, 3)

    @pytest.mark.parametrize("window", [(slice(0, 4), slice(0, 4)), (slice(1, 1), slice(0, 4))])
    def test_window_outside_the_frame_rejected(self, tmp_path, window):
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), np.ones((2, 3, 4)))
        with pytest.raises(ParameterError, match="not inside the 4x3 px frames"):
            read_layer_stack(str(path), window, (4, 3))

    def test_file_cut_after_the_size_check_is_corrupt(self, tmp_path, monkeypatch):
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), np.ones((3, 3, 4)))
        path.write_bytes(path.read_bytes()[:-30])  # 24-byte frames: frame 1 ends at byte 76
        real_fstat = os.fstat
        # the size check sees the whole file, as if it shrank right after
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 30))
        with pytest.raises(StoreCorruptionError, match="frame 1 ends at byte 70, expected 76") as e:
            _read_whole(path, 3, 4)
        assert e.value.offset == 70

    @pytest.mark.parametrize(
        "cut, error, message",
        [
            (slice(0, 75), StoreCorruptionError, "stack truncated: 75 bytes, expected 76"),
            (slice(0, 20), StoreCorruptionError, "stack header truncated: 20 bytes"),
            (slice(1, None), StoreFormatError, "bad stack magic"),
        ],
        ids=["body", "header", "magic"],
    )
    def test_bad_stack_file_rejected(self, tmp_path, cut, error, message):
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), np.ones((2, 3, 4)))
        path.write_bytes(path.read_bytes()[cut])
        with pytest.raises(error, match=message):
            _read_whole(path, 3, 4)
