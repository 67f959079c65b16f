import re
import resource
import struct
from dataclasses import fields

import numpy as np
import pytest

from irmap import cli
from irmap.cli import RunConfig, load_config, main
from irmap.geometry import SparseFeature, box_mesh, mesh_to_binary_stl
from irmap.radiometry import CalibrationProfile, forward_counts, profile_to_text
from irmap.store import (
    FeatureStore,
    StoreMeta,
    quantize_counts,
    read_layer_stack,
    write_layer_stack,
    write_store,
)
from test_store import MALFORMED_STORES

MINI_CONFIG = """\
[run]
out = mini.irvx
seed = 7
jobs = 1
layers = 0..1
frames_dir = {frames_dir}

[geometry]
stl = mini.stl
pitch_um = 360,360,40

[camera]
width = 64
height = 64
origin_x = 32
origin_y = 32
fps = 30

[simulation]
noise_percent = 1.0
prescan_frames = 3
tail_frames = 35
spatter_count = 0
"""


# one triangle in the z = 0 plane: a part of zero height
FLAT_STL = b"""solid flat
facet normal 0 0 1
outer loop
vertex 0 0 0
vertex 3.6 0 0
vertex 3.6 3.6 0
endloop
endfacet
endsolid flat
"""


# every config key, each set to a value other than its default
FULL_CONFIG = """\
[run]
out = other.irvx
frames_dir = frames
seed = 11
jobs = 3
layers = 1..2
features = interpass,scan_order
profile = cal.profile

[geometry]
stl = part.stl
pitch_um = 300,300,30

[camera]
width = 320
height = 200
origin_x = 100
origin_y = 90
fps = 60

[scan]
scan_speed_mm_s = 800
hatch_um = 90
stripe_width_mm = 5
stripe_overlap_mm = 0.1
rotation_per_layer_deg = 45

[thermal]
ambient_c = 100
peak_c = 1500
footprint_px = 2
decay_s = 0.05

[simulation]
noise_percent = 2.5
prescan_frames = 4
tail_frames = 20
spatter_count = 5
spatter_peak_dt_c = 300
spatter_decay_s = 0.2

[features]
offset_frames = 8
cooling_window = 20
spatter_floor_sigmas = 5
"""

FULL_CONFIG_FIELDS = {
    "out": "other.irvx",
    "frames_dir": "frames",
    "seed": 11,
    "jobs": 3,
    "layer_lo": 1,
    "layer_hi": 2,
    "features": (1, 3),
    "profile_path": "cal.profile",
    "stl": "part.stl",
    "pitch_x_um": 300.0,
    "pitch_y_um": 300.0,
    "pitch_z_um": 30.0,
    "cam_width": 320,
    "cam_height": 200,
    "origin_x": 100,
    "origin_y": 90,
    "fps": 60.0,
    "scan_speed_mm_s": 800.0,
    "hatch_um": 90.0,
    "stripe_width_mm": 5.0,
    "stripe_overlap_mm": 0.1,
    "rotation_per_layer_deg": 45.0,
    "ambient_c": 100.0,
    "peak_c": 1500.0,
    "footprint_px": 2.0,
    "decay_s": 0.05,
    "noise_percent": 2.5,
    "prescan_frames": 4,
    "tail_frames": 20,
    "spatter_count": 5,
    "spatter_peak_dt_c": 300.0,
    "spatter_decay_s": 0.2,
    "offset_frames": 8,
    "cooling_window": 20,
    "spatter_floor_sigmas": 5.0,
}


@pytest.fixture
def mini_build(tmp_path):
    stl = tmp_path / "mini.stl"
    stl.write_bytes(mesh_to_binary_stl(box_mesh((3.6, 3.6, 0.08))))
    cfg = tmp_path / "mini.ini"
    cfg.write_text(MINI_CONFIG.format(frames_dir=""))
    return tmp_path


class TestExitCodes:
    def test_missing_stl_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINI_CONFIG.format(frames_dir=""))
        code = main(["extract", "--config", str(cfg)])
        assert code == 2
        assert "mini.stl" in capsys.readouterr().err

    def test_bad_layers_flag(self, mini_build):
        code = main(
            ["extract", "--config", str(mini_build / "mini.ini"), "--layers", "zero"]
        )
        assert code == 2

    def test_unknown_feature_flag(self, mini_build):
        code = main(
            [
                "extract",
                "--config",
                str(mini_build / "mini.ini"),
                "--features",
                "nonsense",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, ini_edit, message",
        [
            (["--jobs", "0"], None, "jobs must be at least 1"),
            (["--jobs", "-3"], None, "jobs must be at least 1"),
            ([], ("360,360,40", "360,abc,40"), "geometry.pitch_um"),
            ([], ("[camera]", "[bogus]\n[camera]"), "unknown config section [bogus]"),
            (
                [],
                ("[camera]", "[camera]\nbogus = 1"),
                "unknown key 'bogus' in section [camera]",
            ),
            ([], ("360,360,40", "0,360,40"), "geometry.pitch_um"),
            ([], ("360,360,40", "360,nan,40"), "geometry.pitch_um"),
            ([], ("360,360,40", "360,370,40"), "[geometry] pitch_um x and y must be equal"),
            ([], ("fps = 30", "fps = 0"), "[camera] fps must be a positive number"),
            ([], ("origin_x = 32", "origin_x = 64"), "[camera] origin pixel outside frame dims"),
            ([], ("[camera]", "[scan]\nhatch_um = 0\n[camera]"), "[scan] hatch_um must be positive"),
            ([], ("[camera]", "[thermal]\nfootprint_px = 0.5\n[camera]"), "[thermal] footprint_px must be at least 1 px"),
            ([], ("[camera]", "[thermal]\ndecay_s = 0\n[camera]"), "[thermal] decay_s must be positive"),
            ([], ("noise_percent = 1.0", "noise_percent = 200"), "[simulation] noise_percent must be in [0, 100]"),
            ([], ("prescan_frames = 3", "prescan_frames = -1"), "[simulation] prescan_frames must be at least 0"),
            ([], ("tail_frames = 35", "tail_frames = -5"), "[simulation] tail_frames must be at least 0"),
            ([], ("spatter_count = 0", "spatter_count = -1"), "[simulation] spatter_count must be at least 0"),
            ([], ("[camera]", "[features]\noffset_frames = -1\n[camera]"), "[features] offset_frames must be at least 0"),
            ([], ("[camera]", "[features]\ncooling_window = 0\n[camera]"), "[features] cooling_window must be at least 1"),
            ([], ("[camera]", "[thermal]\ndecay_s = nan\n[camera]"), "[thermal] decay_s must be a finite number"),
            ([], ("[camera]", "[thermal]\ndecay_s = inf\n[camera]"), "[thermal] decay_s must be a finite number"),
            ([], ("[camera]", "[thermal]\nambient_c = nan\n[camera]"), "[thermal] ambient_c must be a finite number"),
            ([], ("[camera]", "[thermal]\nambient_c = -inf\n[camera]"), "[thermal] ambient_c must be a finite number"),
            ([], ("[camera]", "[thermal]\npeak_c = inf\n[camera]"), "[thermal] peak_c must be a finite number"),
            ([], ("[camera]", "[thermal]\nfootprint_px = nan\n[camera]"), "[thermal] footprint_px must be a finite number"),
            (
                [],
                ("[camera]", "[features]\nspatter_floor_sigmas = nan\n[camera]"),
                "[features] spatter_floor_sigmas must be a finite number",
            ),
            ([], ("fps = 30", "fps = inf"), "[camera] fps must be a finite number"),
            ([], ("[camera]", "[thermal]\nambient_c = -300\n[camera]"), "[thermal] ambient_c must be above -273.15 degC"),
            ([], ("[camera]", "[thermal]\npeak_c = -300\n[camera]"), "[thermal] peak_c must be above ambient_c"),
            ([], ("[camera]", "[thermal]\npeak_c = 50\n[camera]"), "[thermal] peak_c must be above ambient_c"),
            ([], ("seed = 7", "seed = -1"), "[run] seed must be at least 0"),
            (["--seed", "-1"], None, "[run] seed must be at least 0"),
            (
                [],
                ("spatter_count = 0", "spatter_count = 2\nspatter_peak_dt_c = -5"),
                "[simulation] spatter_peak_dt_c must be positive",
            ),
            (
                [],
                ("spatter_count = 0", "spatter_count = 2\nspatter_decay_s = 0"),
                "[simulation] spatter_decay_s must be positive",
            ),
        ],
        ids=[
            "jobs-zero",
            "jobs-negative",
            "pitch-not-a-number",
            "section",
            "key",
            "pitch-zero",
            "pitch-nan",
            "pitch-x-not-y",
            "fps-zero",
            "origin-outside-frame",
            "hatch-zero",
            "footprint-below-1-px",
            "decay-zero",
            "noise-above-100",
            "prescan-negative",
            "tail-negative",
            "spatter-count-negative",
            "offset-negative",
            "cooling-window-zero",
            "decay-nan",
            "decay-inf",
            "ambient-nan",
            "ambient-minus-inf",
            "peak-inf",
            "footprint-nan",
            "spatter-floor-nan",
            "fps-inf",
            "ambient-below-absolute-zero",
            "peak-below-absolute-zero",
            "peak-below-ambient",
            "seed-negative",
            "seed-flag-negative",
            "spatter-peak-negative",
            "spatter-decay-zero",
        ],
    )
    def test_bad_config_value(self, mini_build, capsys, flags, ini_edit, message):
        cfg = mini_build / "mini.ini"
        if ini_edit:
            cfg.write_text(cfg.read_text().replace(*ini_edit))
        assert main(["extract", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and str(cfg) in err

    def test_unplaceable_spatter_count(self, mini_build, capsys):
        cfg = mini_build / "mini.ini"
        cfg.write_text(cfg.read_text().replace("spatter_count = 0", "spatter_count = 200"))
        assert main(["extract", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[simulation] spatter_count = 200: layer 0: could only place" in err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"7 bytes", "input too short to be an STL file"),
            (bytes(80) + struct.pack("<I", 0), "mesh must contain at least one triangle"),
            (bytes(80) + struct.pack("<I", 2) + bytes(60), "binary STL declares 2 triangles"),
            (b"solid x\nfacet normal 0 0 1\nvertex 0 0\n", "line 3: vertex needs 3 coordinates"),
            (FLAT_STL, "empty voxel grid dims (10, 10, 0)"),
        ],
        ids=["seven-bytes", "no-triangles", "truncated", "bad-ascii-vertex", "zero-height"],
    )
    @pytest.mark.parametrize("command", ["voxelize", "extract"])
    def test_bad_stl_names_the_file(self, mini_build, capsys, command, data, message):
        stl = mini_build / "mini.stl"
        stl.write_bytes(data)
        if command == "voxelize":
            argv = ["voxelize", "--stl", str(stl)]
        else:
            argv = ["extract", "--config", str(mini_build / "mini.ini")]
        assert main(argv) == 3
        assert f"data error: {stl}: {message}" in capsys.readouterr().err

    def test_export_of_a_missing_block_names_the_store(self, tmp_path, capsys):
        fstore = FeatureStore(StoreMeta(pitch_um=(360.0, 360.0, 40.0), dims=(4, 4, 6)))
        fstore.add(0, 1, SparseFeature(np.array([0, 5], dtype=np.uint32), np.ones(2, dtype=np.float32)))
        store_path = tmp_path / "one.irvx"
        store_path.write_bytes(write_store(fstore))
        argv = ["export", "--store", str(store_path), "--layer", "5", "--feature", "scan_order"]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {store_path}: (layer, feature) (5, 3) not in store\n"

    @pytest.mark.parametrize("pitch", ["nan,360,40", "360,0,40", "360,360,-40", "360,inf,40"])
    def test_bad_voxelize_pitch(self, mini_build, capsys, pitch):
        assert main(["voxelize", "--stl", str(mini_build / "mini.stl"), "--pitch", pitch]) == 2
        assert f"bad --pitch {pitch!r}" in capsys.readouterr().err

    def test_misspelled_profile_key(self, mini_build, capsys):
        text = profile_to_text(CalibrationProfile()).replace("emissivity_powder", "emisivity_powder")
        (mini_build / "cal.profile").write_text(text)
        cfg = mini_build / "mini.ini"
        cfg.write_text(cfg.read_text().replace("[run]", "[run]\nprofile = cal.profile"))
        assert main(["extract", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cal.profile" in err and "unknown key 'emisivity_powder' in section [profile]" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
    @pytest.mark.parametrize("command", ["report", "export"])
    def test_malformed_store_is_data_error(self, tmp_path, capsys, command, case):
        store_path = tmp_path / "bad.irvx"
        store_path.write_bytes(MALFORMED_STORES[case][0])
        out = ["--layer", "0", "--feature", "interpass", "--out", str(tmp_path / "x.csv")]
        assert main([command, "--store", str(store_path), *(out if command == "export" else [])]) == 3
        err = capsys.readouterr().err
        assert f"data error: {store_path}: " in err and MALFORMED_STORES[case][1] in err

    @pytest.mark.parametrize("where", ["store", "stl-flag", "stl-key", "frame-stack"])
    def test_directory_given_as_file(self, mini_build, capsys, where):
        cfg = mini_build / "mini.ini"
        folder = mini_build / "folder.stl"
        if where == "store":
            folder, argv = mini_build, ["report", "--store", str(mini_build)]
        elif where == "stl-flag":
            argv = ["voxelize", "--stl", str(folder)]
        elif where == "stl-key":
            cfg.write_text(cfg.read_text().replace("stl = mini.stl", "stl = folder.stl"))
            argv = ["extract", "--config", str(cfg)]
        else:
            folder = mini_build / "frames" / "layer_0000.irfs"
            cfg.write_text(MINI_CONFIG.format(frames_dir="frames"))
            argv = ["extract", "--config", str(cfg)]
        folder.mkdir(parents=True, exist_ok=True)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(folder) in err and (where != "frame-stack" or "layer 0" in err)

    def test_every_config_key_loads(self, tmp_path):
        part = mesh_to_binary_stl(box_mesh((3.6, 3.6, 0.08)))
        (tmp_path / "part.stl").write_bytes(part)
        calibration = CalibrationProfile(emissivity_powder=0.5)
        (tmp_path / "cal.profile").write_text(profile_to_text(calibration))
        (tmp_path / "full.ini").write_text(FULL_CONFIG)
        cfg = load_config(str(tmp_path / "full.ini"))
        settable = {f.name for f in fields(RunConfig)} - {"config_dir", "config_sha256"}
        assert set(FULL_CONFIG_FIELDS) == settable
        default = RunConfig()
        for name, value in FULL_CONFIG_FIELDS.items():
            assert getattr(default, name) != value, name
            assert getattr(cfg, name) == value, name
        assert cfg.profile == calibration

    @pytest.mark.parametrize(
        "defect", ["frame-dims", "short-header", "zero-frames", "nan-fps"]
    )
    def test_bad_frame_stack_is_data_error(self, mini_build, capsys, defect):
        frames = mini_build / "frames"
        frames.mkdir()
        stack = frames / "layer_0000.irfs"
        ambient = forward_counts(80.0, 0.63, CalibrationProfile())
        if defect == "frame-dims":  # [camera] is 64x64
            write_layer_stack(stack, np.full((40, 32, 32), ambient))
        elif defect == "short-header":
            stack.write_bytes(b"IRFS" + bytes(10))
        elif defect == "zero-frames":
            stack.write_bytes(b"IRFS" + struct.pack("<IIIIfI", 1, 64, 64, 0, 30.0, 0))
        else:
            write_layer_stack(stack, np.full((40, 64, 64), ambient), fps=float("nan"))
        cfg = mini_build / "mini.ini"
        cfg.write_text(MINI_CONFIG.format(frames_dir="frames"))
        assert main(["extract", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "layer 0" in err and "layer_0000.irfs" in err

    def test_laser_in_frame_zero_names_layer_and_file(self, mini_build, capsys):
        frames = np.full((40, 64, 64), forward_counts(80.0, 0.63, CalibrationProfile()))
        frames[0, 32, 32] = 60000  # the part's centre, lit before any pre-scan frame
        (mini_build / "frames").mkdir()
        stack = mini_build / "frames" / "layer_0000.irfs"
        write_layer_stack(stack, frames)
        cfg = mini_build / "mini.ini"
        cfg.write_text(MINI_CONFIG.format(frames_dir="frames"))
        assert main(["extract", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {stack}: layer 0: laser already active in frame 0\n"

    @pytest.mark.parametrize(
        "text, where",
        [
            ("700,abc\n", "line 1"),
            ("# temp_c,counts\n25,900\n700,5000,1\n", "line 3"),
            ("700,5000\n", None),
            ("700,5000\n750,5600\n", None),
            ("700,5000\n700,5000\n", None),
            ("\udcff700,5000\n", None),
            ("25,0\n100,1\n500,2\n", "sample 1 (counts 0.000, reference 25 degC)"),
        ],
        ids=[
            "not-a-number",
            "three-fields",
            "one-sample",
            "narrow-span",
            "one-temperature",
            "not-utf8",
            "below-floor",
        ],
    )
    def test_bad_samples_file_is_data_error(self, tmp_path, capsys, text, where):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["calibrate-thermal", "--samples", str(samples)]) == 3
        err = capsys.readouterr().err
        assert "samples.csv" in err and (where is None or where in err)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("-75,-75,100\n", "line 1"),
            ("# world_x,world_y,image_x,image_y\n-75,-75,100,abc\n", "line 2"),
            ("-75,-75,100,90\n75,-75,520,85\n75,75,530,400\n", None),
            ("0,0,0,0\n1,1,1,1\n2,2,2,2\n3,3,3,3\n", None),
            ("\udcff-75,-75,100,90\n", None),
        ],
        ids=["three-fields", "not-a-number", "three-points", "collinear", "not-utf8"],
    )
    def test_bad_points_file_is_data_error(self, tmp_path, capsys, text, where):
        points = tmp_path / "points.txt"
        points.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["calibrate-spatial", "--points", str(points)]) == 3
        err = capsys.readouterr().err
        assert "points.txt" in err and (where is None or where in err)

    def test_corrupt_store_is_data_error(self, tmp_path, mini_build):
        code = main(["extract", "--config", str(mini_build / "mini.ini")])
        assert code == 0
        store_path = mini_build / "mini.irvx"
        data = store_path.read_bytes()
        store_path.write_bytes(data[:-5])
        out = tmp_path / "x.csv"
        code = main(
            [
                "export",
                "--store",
                str(store_path),
                "--layer",
                "0",
                "--feature",
                "interpass",
                "--out",
                str(out),
            ]
        )
        assert code == 3


class TestPipeline:
    def test_extract_report_export(self, mini_build, tmp_path, capsys):
        cfg = str(mini_build / "mini.ini")
        assert main(["extract", "--config", cfg]) == 0
        store_path = mini_build / "mini.irvx"
        assert store_path.exists()
        assert (mini_build / "mini.irvx.manifest.txt").exists()
        capsys.readouterr()

        assert main(["report", "--store", str(store_path)]) == 0
        text = capsys.readouterr().out
        assert "blocks:" in text and "reduction_ratio" in text

        out = tmp_path / "layer0.csv"
        code = main(
            [
                "export",
                "--store",
                str(store_path),
                "--layer",
                "0",
                "--feature",
                "scan_order",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "i,j,layer,value"
        assert len(lines) > 1

    def test_simulate_then_extract_from_disk(self, mini_build):
        cfg = str(mini_build / "mini.ini")
        frames = mini_build / "frames"
        assert main(["simulate", "--config", cfg, "--out-dir", str(frames)]) == 0
        assert (frames / "layer_0000.spatter.csv").exists()

        # the file holds the in-memory window render, on ambient powder
        whole = (slice(0, 64), slice(0, 64))  # the 64x64 camera frame
        on_disk, _ = read_layer_stack(str(frames / "layer_0000.irfs"), whole, (64, 64))
        run = load_config(cfg)
        stack, _, _ = cli._simulate_layer(run, cli._voxelize_config(run), 0)
        (y0, x0), (h, w) = stack.origin, stack.shape
        powder = quantize_counts(forward_counts(80.0, run.profile.emissivity_powder, run.profile))
        expected = np.full(on_disk.shape, powder, dtype=on_disk.dtype)
        expected[:, y0 : y0 + h, x0 : x0 + w] = stack.frames
        assert on_disk.shape[1:] == (64, 64) and (h, w) != (64, 64)
        assert np.array_equal(on_disk, expected)

        cfg2 = mini_build / "mini2.ini"
        cfg2.write_text(
            MINI_CONFIG.format(frames_dir="frames").replace("mini.irvx", "mini2.irvx")
        )
        assert main(["extract", "--config", str(cfg2)]) == 0
        assert (mini_build / "mini2.irvx").exists()
        assert "; cli._load_layer: " in (mini_build / "mini2.irvx.timings.txt").read_text()

    def test_timings_name_each_stage(self, mini_build):
        assert main(["extract", "--config", str(mini_build / "mini.ini")]) == 0
        lines = (mini_build / "mini.irvx.timings.txt").read_text().splitlines()
        assert len(lines) == 2
        for layer, line in enumerate(lines):
            m = re.fullmatch(
                rf"layer {layer}: (\S+) s; cli._simulate_layer: (\S+) s; features.extract_layer: (\S+) s"
                r"; peak_rss_mb: (\d+\.\d)",
                line,
            )
            assert m, line
            total, source, extract, peak_mb = (float(v) for v in m.groups())
            assert source > 0 and extract > 0 and source + extract <= total + 0.0015  # 3 rounded decimals
            # this process ran the layer: its peak then is at most its peak now
            assert 0 < peak_mb <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.05

    def test_determinism(self, mini_build):
        cfg = str(mini_build / "mini.ini")
        assert main(["extract", "--config", cfg]) == 0
        first = (mini_build / "mini.irvx").read_bytes()
        first_manifest = (mini_build / "mini.irvx.manifest.txt").read_bytes()
        assert main(["extract", "--config", cfg]) == 0
        assert (mini_build / "mini.irvx").read_bytes() == first
        assert (mini_build / "mini.irvx.manifest.txt").read_bytes() == first_manifest

    def test_parallel_matches_serial(self, mini_build):
        cfg = str(mini_build / "mini.ini")
        assert main(["extract", "--config", cfg, "--jobs", "1"]) == 0
        serial = (mini_build / "mini.irvx").read_bytes()
        assert main(["extract", "--config", cfg, "--jobs", "2"]) == 0
        assert (mini_build / "mini.irvx").read_bytes() == serial


class TestStandaloneCommands:
    def test_demo_writes_bundle(self, tmp_path):
        assert main(["demo", "--out-dir", str(tmp_path / "demo")]) == 0
        assert (tmp_path / "demo" / "demo.ini").exists()
        assert (tmp_path / "demo" / "box.stl").exists()

    def test_voxelize(self, mini_build, capsys):
        out = mini_build / "vox.csv"
        code = main(
            ["voxelize", "--stl", str(mini_build / "mini.stl"), "--out", str(out)]
        )
        assert code == 0
        assert "occupied: 200" in capsys.readouterr().out
        assert out.read_text().startswith("i,j,k")

    def test_calibrate_spatial(self, tmp_path, capsys):
        pts = tmp_path / "points.txt"
        pts.write_text(
            "# world_x,world_y,image_x,image_y\n"
            "-75,-75,100,90\n75,-75,520,85\n75,75,530,400\n-75,75,95,410\n"
        )
        code = main(["calibrate-spatial", "--points", str(pts)])
        assert code == 0
        assert "homography" in capsys.readouterr().out

    def test_calibrate_thermal(self, tmp_path, capsys):
        profile = CalibrationProfile()
        lines = ["# temp_c,counts"]
        for t in np.linspace(25, 500, 8):
            lines.append(f"{t},{forward_counts(float(t), 0.63, profile)}")
        samples = tmp_path / "samples.csv"
        samples.write_text("\n".join(lines) + "\n")
        code = main(["calibrate-thermal", "--samples", str(samples)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.63" in out
