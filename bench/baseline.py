"""Record the benchmark's baseline: medians and quartiles over several seeds.

    python3 bench/baseline.py --out bench/baseline.json

For every workload of BENCHMARK.json it runs `bench/run.py` once per seed in
SEEDS untraced, then once traced on the first seed, and writes the machine,
the per-metric median and quartiles, each metric's spread (interquartile
range over median, as the acceptance rule computes it), the per-layer
numbers and the tracing overhead.
`program_sha256` identifies the measured `src/` tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kb = int(fh.readline().split()[1])
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {
        "machine": machine(),
        "program_sha256": wl.program_sha256(),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, s, spec["run_seconds"], 0) for s in SEEDS]
        e2e = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[metric] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": values,
                "bound": bound,
                "unit": runs[0]["metrics"][metric]["unit"],
            }
        traced = run(name, SEEDS[0], spec["run_seconds"], 1)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        print(name, json.dumps(e2e), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
