import struct
from dataclasses import fields

import numpy as np
import pytest

from irmap import cli
from irmap.cli import RunConfig, load_config, main
from irmap.geometry import box_mesh, mesh_to_binary_stl
from irmap.radiometry import CalibrationProfile, forward_counts, profile_to_text
from irmap.store import quantize_counts, read_layer_stack, write_layer_stack

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
pitch_um = 300,310,30

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
layer_thickness_um = 30

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
    "pitch_y_um": 310.0,
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
    "layer_thickness_um": 30.0,
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
        ],
        ids=["jobs-zero", "jobs-negative", "pitch-not-a-number", "section", "key"],
    )
    def test_bad_config_value(self, mini_build, capsys, flags, ini_edit, message):
        cfg = mini_build / "mini.ini"
        if ini_edit:
            cfg.write_text(cfg.read_text().replace(*ini_edit))
        assert main(["extract", "--config", str(cfg), *flags]) == 2
        assert message in capsys.readouterr().err

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
        on_disk, _ = read_layer_stack(str(frames / "layer_0000.irfs"))
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
