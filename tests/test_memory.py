"""Per-layer memory: the chunked reductions and the windowed stack read,
and the voxelizer's pair passes.

Each stage's tracemalloc peak above what was live before it is bounded by a
stated multiple of the layer's u16 stack bytes, on one 40 mm box layer (498
frames of a 135 x 135 px part window, 18 MB), and the chunked reductions
equal the whole-stack versions in `oracles` byte for byte.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from irmap import cli, geometry, imageops, store
from irmap import features as feat
from irmap.geometry import box_mesh, mesh_to_binary_stl
from irmap.radiometry import forward_counts
from test_geometry import icosphere_mesh

SRC = Path(__file__).resolve().parent.parent / "src"
REDUCTION_PEAK = 0.5  # x the stack bytes, above the live stack


@pytest.fixture(scope="module")
def layer40(tmp_path_factory):
    """Layer 0 of a 40 mm box part on a 160 x 160 px camera at the demo's
    other settings, and its stack file: (config, voxels, stack, stack file)."""
    out = tmp_path_factory.mktemp("box40")
    cfg_path = cli.write_demo(str(out))
    (out / "box.stl").write_bytes(mesh_to_binary_stl(box_mesh((40.0, 40.0, 0.8))))
    text = (out / "demo.ini").read_text().replace("[run]\n", "[run]\nframes_dir = frames\n")
    for key, px in [("width", 160), ("height", 160), ("origin_x", 80), ("origin_y", 80)]:
        text, hits = re.subn(rf"^{key} = .*$", f"{key} = {px}", text, flags=re.M)
        assert hits == 1, key
    (out / "demo.ini").write_text(text)
    cfg = cli.load_config(cfg_path)
    vox = cli._voxelize_config(cfg)
    stack, _, mask = cli._simulate_layer(cfg, vox, 0)
    assert stack.frames.shape == (498, 135, 135) and stack.frames.dtype == np.uint16
    (out / "frames").mkdir()
    rows, cols = mask.window(feat.WINDOW_PAD)
    powder = store.quantize_counts(forward_counts(80.0, cfg.profile.emissivity_powder, cfg.profile))

    def camera_frames():
        frame = np.full((cfg.cam_height, cfg.cam_width), powder, dtype="<u2")
        for window in stack.frames:
            frame[rows, cols] = window
            yield frame

    path = cli._stack_path(cfg, 0)
    store.write_layer_stack(path, camera_frames(), cfg.fps)
    return cfg, vox, stack, path


def peak_above_live(fn, *args):
    """fn(*args) and the tracemalloc peak of the call above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


REDUCTIONS = {
    "fold_max_argmax": lambda stack, order, profile: imageops.fold_max_argmax(stack.frames),
    "max_predeposition": lambda stack, order, profile: feat.max_predeposition(stack, order, profile, 10),
    "melt_pool_area": lambda stack, order, profile: feat.melt_pool_area(stack, order, profile),
}
WHOLE = {
    "fold_max_argmax": lambda stack, order, profile: oracles.fold_max_argmax_whole(stack.frames),
    "max_predeposition": lambda stack, order, profile: oracles.max_predeposition_whole(stack, order, profile, 10),
    "melt_pool_area": lambda stack, order, profile: oracles.melt_pool_area_whole(stack, order, profile),
}


def result_bytes(result) -> list[bytes]:
    if isinstance(result, feat.FeatureMap):
        return [result.grid.tobytes(), result.validity.tobytes()]
    return [a.dtype.str.encode() + a.tobytes() for a in result]


class TestFortyMillimetreLayer:
    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction_peak_and_bytes(self, layer40, name):
        cfg, _, stack, _ = layer40
        _, order = feat.heat_intensity_and_scan_order(stack, cfg.profile)
        got, peak = peak_above_live(REDUCTIONS[name], stack, order, cfg.profile)
        assert peak <= REDUCTION_PEAK * stack.frames.nbytes, f"{peak / stack.frames.nbytes:.2f}x the stack"
        assert result_bytes(got) == result_bytes(WHOLE[name](stack, order, cfg.profile))

    def test_load_layer_holds_the_window_and_one_row_band(self, layer40):
        cfg, vox, stack, _ = layer40
        _, mask_peak = peak_above_live(geometry.layer_mask, vox, 0, cfg.registration())
        (loaded, truth, _), peak = peak_above_live(cli._load_layer, cfg, vox, 0)
        assert truth is None and loaded.frames.tobytes() == stack.frames.tobytes()
        assert loaded.origin == stack.origin
        band = loaded.frames.shape[1] * cfg.cam_width * 2
        # the layer's mask, the window stack, one row band and a file object
        assert peak <= mask_peak + loaded.frames.nbytes + band + 2**16

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_load_layer_resident_growth_is_the_window(self, layer40):
        """In a fresh process, reading the layer grows the peak resident set
        by about its window stack, not by the file's pages."""
        cfg, _, stack, path = layer40
        script = (
            "import sys\n"
            "from irmap import cli\n"
            "def kib(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith(key))\n"
            "cfg = cli.load_config(sys.argv[1])\n"
            "vox = cli._voxelize_config(cfg)\n"
            "before = kib('VmRSS:')\n"
            "cli._load_layer(cfg, vox, 0)\n"
            "print((kib('VmHWM:') - before) * 1024)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        ini = os.path.join(cfg.config_dir, "demo.ini")
        out = subprocess.run([sys.executable, "-c", script, ini], env=env, capture_output=True, text=True, check=True)
        growth = int(out.stdout.split()[-1])
        assert os.path.getsize(path) > stack.frames.nbytes
        assert growth <= stack.frames.nbytes + 8 * 2**20, f"{growth / 2**20:.1f} MiB for a {stack.frames.nbytes / 2**20:.1f} MiB stack"


def random_stack(rng, profile):
    """A u16 stack spanning several chunks: powder counts with repeats, hot
    laser spots at random frames and, around some, pixels above the melt
    threshold that are never scanned."""
    n, h, w = int(rng.integers(1, 70)), int(rng.integers(3, 12)), int(rng.integers(3, 12))
    frames = rng.integers(0, rng.choice([199, 376, 1000]), size=(n, h, w))
    if rng.random() < 0.3:
        frames = frames // 60 * 60
    hot = int(feat.activity_threshold(profile)) + 1
    melt = int(feat.melt_threshold(profile)) + 1
    for _ in range(int(rng.integers(0, 2 * h * w))):
        t, y, x = rng.integers(0, n), rng.integers(0, h), rng.integers(0, w)
        frames[t, y, x] = rng.choice([hot, 40000])
        frames[t, max(y - 1, 0) : y + 2, x] = np.maximum(frames[t, max(y - 1, 0) : y + 2, x], melt)
    return frames.astype(np.uint16)


@pytest.mark.parametrize("chunk", [1, 3, imageops.CHUNK_FRAMES])
def test_chunked_reductions_equal_whole_stack(rng, profile, monkeypatch, chunk):
    monkeypatch.setattr(imageops, "CHUNK_FRAMES", chunk)
    for _ in range(60):
        stack = feat.LayerStack(random_stack(rng, profile))
        _, order = feat.heat_intensity_and_scan_order(stack, profile)
        for name in sorted(REDUCTIONS):
            got = REDUCTIONS[name](stack, order, profile)
            assert result_bytes(got) == result_bytes(WHOLE[name](stack, order, profile)), name


@pytest.mark.parametrize(
    "mesh, dims, bound_mib",
    [
        # all 290,082 pairs in one pass peak at about 41 MiB
        (icosphere_mesh(10.0, (10.0, 10.0, 10.0), 4), (56, 56, 500), 6),
        # 18.6 MiB of occupancy; passes bounded by their pairs alone peak at 47 MiB
        (box_mesh((250.0, 20.0, 20.0)), (695, 56, 500), 22),
    ],
    ids=["sphere", "long box"],
)
def test_voxelize_peak_is_bounded_by_the_pair_passes(mesh, dims, bound_mib):
    """A pass holds at most RAY_BLOCK (ray, triangle) pairs and spans at most
    8 * RAY_BLOCK // (nx + 1) rays, whose parity takes (nx + 1) int64 each.
    The occupancy counts in the bound."""
    vox, peak = peak_above_live(geometry.voxelize, mesh, (360.0, 360.0, 40.0))
    assert vox.dims == dims
    assert peak <= bound_mib * 2**20, f"{peak / 2**20:.2f} MiB"
