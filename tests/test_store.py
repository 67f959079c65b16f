import numpy as np
import pytest

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
            idx = np.sort(rng.choice(nx * ny, size=n, replace=False)).astype(np.uint32)
            vals = rng.normal(size=n).astype(np.float32)
            fs.add(layer, fid, SparseFeature(indices=idx, values=vals))
    return fs


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
        import struct

        count_pos = len(data) - 8 - 4  # one 8-byte entry, count just before it
        data[count_pos : count_pos + 4] = struct.pack("<I", 2**31)
        with pytest.raises(StoreCorruptionError):
            read_store(bytes(data))


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


class TestLayerStack:
    def test_round_trip(self, tmp_path, rng):
        frames = rng.integers(0, 65535, size=(7, 12, 16)).astype(np.uint16)
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), frames, fps=30.0)
        back, fps = read_layer_stack(str(path))
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

    def test_frames_are_a_read_only_map(self, tmp_path):
        path = tmp_path / "layer_0000.irfs"
        write_layer_stack(str(path), np.ones((2, 3, 4)))
        frames, _ = read_layer_stack(str(path))
        assert isinstance(frames, np.memmap) and not frames.flags.writeable

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
            read_layer_stack(str(path))
