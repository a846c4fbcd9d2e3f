"""Smoke test of the benchmark: every workload, check and metric name.

Runs ``bench/run.py --smoke`` (tiny traces, both the end-to-end and the
traced mode) and checks that it reports every metric BENCHMARK.json
declares, for every workload, with the declared unit and no failed run;
and that a program whose output fails a check, or that exits non-zero,
makes the run end with ``correct: false`` instead of hanging.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from checks import check_sweep

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_reports_every_metric_of_every_workload():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {f"{w['name']}/{m['name']}": m["unit"]
            for w in spec["workloads"] for m in spec["end_to_end"] + spec["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for w in spec["workloads"]:
        assert f"{w['name']} failed_share 0.0 share" in proc.stdout


def test_sweep_check_flags_opt_above_lru_and_oracle_mismatch():
    rows = ["policy  nsets  bsize  assoc     misses  miss_rate"]
    for policy, misses in (("lru", 10), ("opt", 12)):
        for nsets in (1, 16, 128):
            for bsize in (32, 64):
                for assoc in (1, 2, 4, 8, 16):
                    rows.append(f"{policy} {nsets} {bsize} {assoc} {misses} 0.5")
    exp = {"distinct_blocks": {"32": 5, "64": 5}, "sample": [[16, 32, 4, 9]]}
    problems = check_sweep("\n".join(rows) + "\n", exp)
    assert any(p.startswith("OPT 12 > LRU 10") for p in problems)
    assert any("vs RefCache" in p for p in problems)


@pytest.mark.parametrize("breakage", ["check", "exit"])
def test_broken_program_ends_with_correct_false(breakage, monkeypatch, capsys):
    import run

    if breakage == "check":
        monkeypatch.setitem(run.CHECKS, "sim", lambda text, exp: ["forced failure"])
    else:
        monkeypatch.setattr(run, "CLI", "raise SystemExit(3)")
    assert run.main(["--smoke", "--workload", "sim_text_regions"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {f"sim_text_regions/{m['name']}"
                                      for m in spec["end_to_end"] + spec["per_layer"]}
    assert ("forced failure" if breakage == "check" else "cachesim exited 3") in out
