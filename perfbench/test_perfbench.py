"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The smoke runs use the tiny inputs and one pass, so they check names,
checks and plumbing, not timings.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (os.path.join(ROOT, "src"), HERE):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from listpack import constructive, core, exact  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    result = run.run(workload, workloads.DEFAULT_SEED, 0, trace=False, tiny=True)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(result["diagnostics"]["named"]) == set(run.NAMED[workload].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_per_layer(workload):
    result = run.run(workload, workloads.DEFAULT_SEED, 0, trace=True, tiny=True)
    assert result["failed"] == 0 and result["correct"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names
    assert result["metrics"]["trace.absent"]["value"] == 0
    assert result["metrics"]["cli.main.calls"]["value"] > 0


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # outer [0, 12] holds a [1, 5] (which holds b [2, 4]) and c [7, 10]
    t = tracer_mod.Tracer(clock=_Clock([0, 1, 2, 4, 5, 7, 10, 12]))
    s_outer = t.enter("outer")
    s_a = t.enter("a")
    s_b = t.enter("b")
    t.exit("b", s_b)
    t.exit("a", s_a)
    s_c = t.enter("c")
    t.exit("c", s_c)
    t.exit("outer", s_outer)
    assert t.total_s == {"b": 2, "a": 4, "c": 3, "outer": 12}
    assert t.self_s == {"b": 2, "a": 2, "c": 3, "outer": 5}
    assert t.calls == {"b": 1, "a": 1, "c": 1, "outer": 1}


def test_wrappers_reach_names_imported_elsewhere_and_restore():
    original = core.degeneracy_order
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert exact.degeneracy_order is core.degeneracy_order is not original
        assert constructive.degeneracy_order is core.degeneracy_order
        t.recording = True
        g = core.Graph.from_edges(3, [(0, 1), (1, 2)])
        cover = core.list_to_cover(g, core.ListAssignment.from_lists([[1, 2]] * 3))
        assert exact.find_packing(cover) is not None
        t.recording = False
    finally:
        t.uninstall()
    assert exact.degeneracy_order is original and core.degeneracy_order is original
    assert t.absent == []
    m = t.metrics()
    assert m["exact.find_packing.calls"] == 1
    assert m["core.degeneracy_order.calls"] == 1
    assert m["core.degeneracy_order.vertices"] == 3
    assert m["exact.find_packing.self_s"] <= m["exact.find_packing.total_s"]


def test_missing_names_are_reported_absent():
    t = tracer_mod.Tracer()
    t.install(names=("core.no_such_function", "nomodule.f"))
    t.uninstall()
    assert t.absent == ["core.no_such_function", "nomodule.f"]
    assert t.metrics()["trace.absent"] == 2


def test_generated_inputs_depend_only_on_seed(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    jobs_a = workloads.setup_construct(7, str(a), tiny=True)
    jobs_b = workloads.setup_construct(7, str(b), tiny=True)

    def relative(jobs, root):
        return [[arg.replace(str(root), "") for arg in j.argv] for j in jobs]

    assert relative(jobs_a, a) == relative(jobs_b, b)
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_witness_check_brute_forces_the_witness():
    check = workloads.witness_check("list", 4, workloads.cycle(4), 2)
    packable = {"n": 4, "edges": workloads.cycle(4), "lists": [[1, 2]] * 4}
    assert check({"result": "witness", "k": 2, "witness": packable}) == "witness admits a packing"
    c4_witness = {"n": 4, "edges": workloads.cycle(4), "lists": [[1, 2], [1, 2], [1, 3], [2, 3]]}
    assert check({"result": "witness", "k": 2, "witness": c4_witness}) is None
