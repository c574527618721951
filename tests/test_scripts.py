"""The helper scripts under scripts/ run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_abelian3_sweep_matches_closed_form():
    proc = run_script("abelian3_sweep.py", "--max-module", "9")
    assert proc.returncode == 0, proc.stderr
    assert "0 mismatching rows" in proc.stdout


def test_run_full_audit_on_catalog_file(tmp_path):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("D(14)\nC(6)\nS(4)\n")
    out = tmp_path / "report.jsonl"
    proc = run_script("run_full_audit.py", "first", "--catalog", str(catalog), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3
    assert {r["statement"] for r in rows} == {"first"}
