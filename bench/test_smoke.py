"""Smoke test of the benchmark harness itself (not of the product, and not
in tier-1 ``testpaths``): ``python -m pytest bench -q``.

Drives ``run.py --quick`` — the ``ping_quick`` stand-in workload, two
samples — to pin the output schema of both entry modes and the failure
path on a doctored reference.  A few seconds in total.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *arguments],
        capture_output=True, text=True, timeout=300)


def doctored_reference(tmp_path: Path) -> Path:
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["ping_quick"]["searches"][0]["unique"] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    return path


def test_quick_suite_reports_every_metric_by_name(tmp_path):
    written = tmp_path / "quick.json"
    done = run("--quick", "--trace", "--json", str(written))
    assert done.returncode == 0, done.stderr
    for name, metric in END_TO_END.items():
        assert any(line.split()[:1] == [name] and metric["unit"] in line
                   and "median of 2" in line
                   for line in done.stdout.splitlines()), name
    assert "failed_share" in done.stdout
    entry = json.loads(written.read_text())["sets"][0]["ping_quick"]
    # Two untraced samples and the traced pass, one search each.
    assert (entry["attempted"], entry["failed"]) == (3, 0)
    assert set(entry["medians"]) == set(END_TO_END)
    assert set(entry["layers"]) == set(PER_LAYER)
    layers = entry["layers"]
    assert layers["mc.system.execute_calls"] == 870
    assert layers["trace.overhead_ratio"] > 0
    for name, value in layers.items():
        # A serial memory-store search never enters the parallel layers.
        if name.startswith(("mc.worker.", "mc.transport.", "mc.scheduler.",
                            "mc.replay.", "mc.wire.")):
            assert value == 0, name


def test_contract_mode_prints_one_result_object():
    done = run("--workload", "ping_quick", "--seed", "3",
               "--seconds", "0.2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, reading in result["metrics"].items():
        assert reading["unit"] == END_TO_END[name]["unit"]
        assert reading["value"] > 0

    traced = run("--workload", "ping_quick", "--seed", "3",
                 "--seconds", "0.2", "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)


def test_doctored_reference_is_a_failed_search(tmp_path):
    reference = str(doctored_reference(tmp_path))
    suite = run("--quick", "--reference", reference)
    assert suite.returncode != 0
    assert "2 of 2 searches" in suite.stdout
    assert "expected" in suite.stdout

    contract = run("--workload", "ping_quick", "--seed", "3", "--seconds",
                   "0.2", "--trace", "0", "--reference", reference)
    result = json.loads(contract.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
