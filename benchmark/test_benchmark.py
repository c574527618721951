"""Tests of the benchmark itself.

    python3 -m pytest -q benchmark/test_benchmark.py

They build small tables with the acdlab sources of this checkout and run
each workload on a few small groups for one short round.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probe  # noqa: E402
import run  # noqa: E402
from checks import check_audit_report, check_table_json, p_nilpotent_closed_form  # noqa: E402


def _table_doc(text: str) -> dict:
    from acdlab.chartab import character_table, table_to_json
    from acdlab.constructions import build
    from acdlab.specparse import parse_group_spec

    return json.loads(table_to_json(character_table(build(parse_group_spec(text)))))


@pytest.mark.parametrize("text", ["S(4)", "C(5)", "F(7,3)", "Q8*C(3)"])
def test_float_orthogonality_rejects_one_corrupted_value(text):
    doc = _table_doc(text)
    assert check_table_json(doc) == []
    bad = copy.deepcopy(doc)
    coeff = bad["values"][1][1]["c"][0]
    coeff[0] += coeff[1]  # add 1 to the value
    found = check_table_json(bad)
    assert any("orthogonality" in p for p in found), found


def test_twist_check_rejects_a_wrong_row():
    import child
    from acdlab.chartab import character_table, galois_conjugate, verify_orthogonality
    from acdlab.constructions import build
    from acdlab.specparse import parse_group_spec

    T = character_table(build(parse_group_spec("C(5)")))
    twists = {(r, t): galois_conjugate(T, r, t) for r in range(T.num_chars) for t in (2, 4)}
    report = verify_orthogonality(T)
    assert child._check_table(T, report, twists) == []
    twists[(1, 2)] = twists[(1, 4)]
    assert child._check_table(T, report, twists) == [
        f"twist of row 1 by 2 gave row {twists[(1, 4)]}, which does not match"]


def test_table_check_rejects_wrong_class_sizes():
    doc = _table_doc("S(3)")
    doc["class_sizes"][1] += 1
    assert "class sizes do not sum to the order" in check_table_json(doc)


@pytest.mark.parametrize("text, p, expected", [
    ("D(6)", 3, False),
    ("D(6)", 2, True),
    ("F(7,3)", 3, True),
    ("F(7,3)", 7, False),
    ("C(12)", 2, True),
    ("C(12)", 3, True),
    ("D(8)", 2, True),
    ("SD(2,2,3)", 2, False),
    ("SD(5,3,1)", 5, True),
    ("C(3)*D(10)", 5, False),
    ("C(3)*D(10)", 3, True),
    ("Q8*C(3)", 2, True),
    ("S(4)", 2, None),
    ("MAT(2;[[0,1],[1,1]])", 2, None),
])
def test_p_nilpotent_closed_forms(text, p, expected):
    assert p_nilpotent_closed_form(text, p) is expected


def test_audit_check_flags_a_wrong_row():
    row = {"statement": "first", "spec": "D(6)", "p": 3, "field": "C", "acd": "4/3",
           "bound": "4/3", "below_bound": False, "p_nilpotent": False, "verdict": "sharp-boundary"}
    per_spec, whole = check_audit_report([row], ["D(6)"])
    assert per_spec == {"D(6)": []}
    assert whole and "missing" in whole[0]
    for change in ({"below_bound": True}, {"p_nilpotent": True}, {"verdict": "consistent"},
                   {"verdict": "COUNTEREXAMPLE"}, {"acd": "5/4"}):
        per_spec, _ = check_audit_report([dict(row, **change)], ["D(6)"])
        assert per_spec["D(6)"], change


def test_inputs_depend_on_the_seed_only():
    assert len(run.audit_catalog()) == 356
    assert run.table_panel(3) == run.table_panel(3)
    assert len(run.table_panel(3)) == len(run.TABLE_SLOTS)
    sample = run.selfcheck_sample(3)
    assert sample == run.selfcheck_sample(3) and len(set(sample)) == len(sample)


def test_scaled_time_follows_the_probe():
    # A probe every 0.1 s with the machine at half the reference speed:
    # 10 s of wall, less the time in probes, counts half.
    slow = [(0.1 * i, 2 * probe.REF_S) for i in range(100)]
    wall, in_probes = probe.scaled(slow, 0.0, 10.0)
    assert in_probes == pytest.approx(200 * probe.REF_S)
    assert wall == pytest.approx((10.0 - in_probes) / 2)
    # Each half of a run counts at its own speed, and one stray long probe
    # inside a window changes the speed of no stretch.  The probes at
    # 0, 0.1, ..., 4.9 s own [0, 4.95] and those from 5.0 s own [4.95, 10].
    ref = probe.REF_S
    mixed = [(0.1 * i, ref * (1 if i < 50 else 2)) for i in range(100)]
    mixed[20] = (2.0, 50 * ref)
    wall, in_probes = probe.scaled(mixed, 0.0, 10.0)
    fast_probes, slow_probes = 49 * ref + 50 * ref, 50 * 2 * ref
    assert in_probes == pytest.approx(fast_probes + slow_probes)
    assert wall == pytest.approx((4.95 - fast_probes) + (5.05 - slow_probes) / 2)


def test_probe_allocates_nothing_the_garbage_collector_tracks():
    import gc

    sampler = probe.Sampler()
    sampler.stop()  # the first calls may allocate while the arrays grow
    before = gc.get_count()[0]
    for _ in range(100):
        sampler._sample()
    assert gc.get_count()[0] == before


def test_probe_wrapper_runs_a_module_and_keeps_its_exit_code(tmp_path):
    import subprocess

    samples = tmp_path / "samples.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), str(samples),
                           "-m", "acdlab", "audit", "nope"], env=env, capture_output=True, text=True)
    assert done.returncode == 1 and "error:" in done.stderr
    assert len(probe.load(str(samples))) >= 2


def _declared(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


SHORT_INPUTS = {
    # Together these reach all 16 statement variants and the D(2p) sharp rows.
    "audit-all": ["D(6)", "D(10)", "S(4)", "F(7,3)", "C(12)", "Q8", "C(2)*S(3)", "SD(2,2,3)"],
    "table-large": ["C(12)", "S(4)", "Q8*C(3)"],
    "self-checks": ["S(4)", "C(5)", "F(7,3)", "D(10)", "Q8*C(3)"],
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_has_no_failures(workload):
    result = run.run(workload, seed=0, seconds=0.01, trace=False, root=ROOT,
                     inputs=SHORT_INPUTS[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_traced_run_reports_every_layer(workload):
    result = run.run(workload, seed=0, seconds=0.01, trace=True, root=ROOT,
                     inputs=SHORT_INPUTS[workload])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["chartab.character_table.calls"]["value"] >= 1


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "audit-all", "--seed", "1", "--seconds", "1"])
    assert code != 0
    out = capsys.readouterr()
    assert out.out == "" and "acdlab" in out.err
