import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_lll_baseline_runs_at_tiny_size():
    argv = ["--side", "6", "--degree", "2", "--k", "4", "--runs", "3"]
    (summary,) = run_script("lll_baseline.py", *argv)
    assert set(summary) == {
        "side",
        "degree",
        "k",
        "runs",
        "successes",
        "success_rate",
        "mean_resamples",
        "max_resamples",
    }
    assert summary["runs"] == 3 and 0 <= summary["success_rate"] <= 1


def test_packing_number_scan_runs_at_tiny_size():
    records = run_script("packing_number_scan.py", "--max-n", "3", "--k-max", "3")
    keys = {"graph", "n", "chi_star_list", "note", "seconds"}
    assert all(set(r) == keys for r in records)
    found = {r["graph"]: r["chi_star_list"] for r in records}
    assert found == {"P2": 2, "P3": 2, "C3": 3, "K2": 2, "K3": 3}
