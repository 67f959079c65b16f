"""irmap benchmark.

    python3 bench/run.py --workload demo_sim --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Run from the repository root. Each workload runs in a fresh process
(`bench/measure.py`) with `jobs = 1`, driving the public API
(`cli.load_config`, `cli.run_pipeline`, `store.read_store`,
`store.export_grid`). Inputs are generated from `--seed` into `.bench_work/`
once per seed (and per program, where the program writes them), outside
every timed metric.

The script prints each metric by name with its unit, then, as its last line,
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are its per-layer metrics, taken from
spans recorded around each named module attribute (self time is span time
minus child spans), reported per traced iteration; the spans themselves are
written to `.bench_work/spans-<workload>-s<seed>.json`.

End-to-end metrics:
- throughput_per_s: frames per second of `cli.run_pipeline` wall time, store
  and manifest writing included (exports per second on store_readback);
  the median over iterations.
- latency_p50_ms: median `cli.process_layer` time (on store_readback, the
  median time to read the store and export all of it).
- setup_s: median of config load, STL parse and voxelize, repeated at
  intervals over the run (on store_readback, reading the store).
- peak_rss_mb: peak resident set of the measuring process.
- scan_order_fidelity, spatter_recall, spatter_precision: criterion 06/07
  measures against the simulator's ground truth (on store_readback the
  fidelity is that of the scan order read back from the store).
- reduction_ratio: 1 - store bytes / raw u16 frame bytes.
`failed_fraction` and spatter false positives per layer are printed too but
are 0 on a healthy run, so they are not JSON metrics; `failed` carries the
former.

`correct` holds only when no layer or export failed, the criterion 06/07
rules hold, and repeats of the same program on the same seed gave
byte-identical outputs, within the run and across runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_value(name: str, t: dict) -> float:
    """One per-layer metric from a traced run, per traced iteration."""
    n = len(t["traced_busy"])
    traced_s = sum(t["traced_busy"])
    if name == "features.spatter.records_per_cluster":
        clusters = t["counts"].get("features.spatter_frame_filter.clusters", 0.0)
        return t["counts"].get("features.spatter_layer.records", 0.0) / clusters if clusters else 0.0
    if name == "cli.process_layer.rss_growth_mb":
        calls = t["calls"].get("cli.process_layer", 0)
        return t["counts"].get("cli.process_layer.rss_growth_mb", 0.0) / calls if calls else 0.0
    if name == "trace.overhead_s":
        return t["spans"] / n * t["span_cost_s"]
    covered = sum(s for span, s in t["self_s"].items() if span != "cli.run_pipeline")
    if name == "trace.uncovered_s":
        return (traced_s - covered) / n
    if name == "trace.covered_share":
        return covered / traced_s
    span, _, field = name.rpartition(".")
    if field in ("s", "self_s"):
        return t["self_s"].get(span, 0.0) / n
    if field == "calls":
        return t["calls"].get(span, 0) / n
    return t["counts"].get(name, 0.0) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import workloads as wl

    inputs = wl.prepare(str(WORK), wl.WORKLOADS[name], seed)
    span_file = WORK / f"spans-{name}-s{seed}.json"
    cmd = [sys.executable, str(BENCH / "measure.py"), name, inputs, str(seconds)]
    cmd += ["1" if trace else "0", str(span_file)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: measure.py exited {proc.returncode}\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    broken = list(raw["broken"]) + raw["errors"]
    if len(raw["digests"]) != 1:
        broken.append("repeats on the same seed gave different outputs")
    # the output digest of the first correct run of this program on this seed
    digest_file = WORK / "digests" / f"{name}-s{seed}-{wl.program_sha256()[:12]}.txt"
    if digest_file.exists():
        if raw["digests"] != [digest_file.read_text(encoding="ascii").strip()]:
            broken.append("output differs from an earlier run on the same seed")
    elif not broken and raw["failed"] == 0:
        digest_file.parent.mkdir(exist_ok=True)
        digest_file.write_text(raw["digests"][0] + "\n", encoding="ascii")

    section = "per_layer" if trace else "end_to_end"
    if trace:
        values = {m["name"]: per_layer_value(m["name"], raw["trace"]) for m in spec[section]}
    else:
        values = raw["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    extra = {k: {"value": v, "unit": u} for k, (v, u) in raw["extra"].items()}
    extra["failed_fraction"] = {"value": raw["failed"] / raw["attempted"], "unit": "ratio"}
    return {
        "correct": not broken and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "extra": extra,
        "broken": broken,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "irmap" / "__init__.py").is_file():
        print(f"irmap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {list(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    results = {}
    for name in names:
        t0 = time.perf_counter()
        try:
            res = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: benchmark run failed: {exc}", file=sys.stderr)
            return 1
        results[name] = res
        for key, m in {**res["metrics"], **res["extra"]}.items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
        for problem in res["broken"]:
            print(f"{name} CHECK FAILED: {problem}")
        print(
            f"{name} outputs {'correct' if res['correct'] else 'NOT correct'}"
            f" ({res['attempted']} attempted, {res['failed']} failed,"
            f" {time.perf_counter() - t0:.1f} s)"
        )

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
