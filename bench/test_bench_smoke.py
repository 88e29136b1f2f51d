"""Smoke test of the benchmark with tiny instance lists: every metric that
BENCHMARK.json names is emitted with its unit, every output passes its
checks, and two processes on one seed produce identical checked outputs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

SMALL_RUNS = """
import json, sys
sys.path.insert(0, {bench!r})
import run
run.import_program()
out = {{}}
for name in ("experiment", "gap-lemma", "files"):
    for trace in (0, 1):
        out[f"{{name}} {{trace}}"] = run.run_workload(name, 5, 0, trace, small=True, setup_samples=1)
print(json.dumps(out))
"""


def small_runs() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SMALL_RUNS.format(bench=str(BENCH))],
        capture_output=True, text=True, timeout=300, check=True, cwd=BENCH.parent,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_small_runs_emit_every_metric_and_repeat_exactly():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    first, second = small_runs(), small_runs()
    assert first.keys() == second.keys() and len(first) == 6
    for key, (result, digest, errors) in first.items():
        group = "per_layer" if key.endswith(" 1") else "end_to_end"
        want = {m["name"]: m["unit"] for m in config[group]}
        assert errors == [] and result["correct"], key
        assert result["attempted"] >= 1 and result["failed"] == 0, key
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want, key
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert digest == second[key][1], key
