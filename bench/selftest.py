"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's default test collection: each
traced workload run takes up to half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

SEED = 2  # not the seed the baseline was recorded on
WORKLOADS = ("demo_sim", "replay_disk", "part_fills_frame", "store_readback")


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_named_spans_cover_traced_time(workload):
    result = _traced_run(workload)
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.covered_share"] >= 0.90
    if workload != "store_readback":
        # time inside the pipeline that no named span covers is its self time
        assert m["trace.uncovered_s"] == pytest.approx(m["cli.run_pipeline.self_s"], abs=5e-3)


def test_self_time_excludes_child_spans():
    mod = types.ModuleType("irmap._selftest")
    mod.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.outer = outer
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    try:
        tracer.install(mod, "inner")
        tracer.install(mod, "outer")
        mod.outer()
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert tracer.calls == {"_selftest.outer": 1, "_selftest.inner": 2}
    assert tracer.self_s["_selftest.inner"] == pytest.approx(0.04, abs=0.01)
    assert tracer.self_s["_selftest.outer"] == pytest.approx(0.01, abs=0.005)
    (outer_span,) = [s for s in tracer.spans if s[0] == "_selftest.outer"]
    assert [s[3] for s in tracer.spans if s[0] == "_selftest.inner"] == [
        tracer.spans.index(outer_span)
    ] * 2
    assert mod.inner is not None and not hasattr(mod.inner, "__wrapped__")
