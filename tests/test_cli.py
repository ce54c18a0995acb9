import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from listpack.cli import main
from listpack.core import instance_from_obj, packing_from_obj, validate_packing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(out):
    line = out.strip().splitlines()[0]
    obj = json.loads(line)
    assert obj.get("schema") == "listpack/1"
    return obj


def test_gen_c4_solve_pipe_equivalent(tmp_path, capsys):
    inst = tmp_path / "c4.json"
    code, out, _ = run(capsys, "gen", "c4", "-o", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(inst))
    assert code == 1
    assert record(out)["result"] == "none"


def test_gen_round_trips(tmp_path, capsys):
    for argv in (
        ["gen", "c4"],
        ["gen", "kab-cover"],
        ["gen", "shift"],
        ["gen", "kbb", "--b", "2"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        obj = json.loads(out.strip())
        instance_from_obj(obj)  # parses cleanly


def test_solve_packable_instance(tmp_path, capsys):
    inst = tmp_path / "k3.json"
    inst.write_text(
        json.dumps(
            {
                "n": 3,
                "edges": [[0, 1], [0, 2], [1, 2]],
                "lists": [[1, 2, 3]] * 3,
            }
        )
    )
    code, out, _ = run(capsys, "solve", str(inst))
    assert code == 0
    rec = record(out)
    packing = packing_from_obj(rec["packing"])
    g, lists = instance_from_obj(json.loads(inst.read_text()))
    from listpack.core import list_to_cover

    assert validate_packing(list_to_cover(g, lists), packing) is None


def test_solve_and_augment_run_past_the_recursion_limit(tmp_path, capsys):
    # more vertices than the default recursion limit: both used to exit 70
    from listpack.core import list_to_cover

    path = {
        "n": 1500,
        "edges": [[v, v + 1] for v in range(1499)],
        "lists": [[1, 2]] * 1500,
    }
    edgeless = {"n": 1100, "edges": [], "lists": [[1, 2]] * 1100}
    for name, obj, argv in (
        ("path", path, ["solve"]),
        ("edgeless", edgeless, ["pack", "--method", "augment"]),
    ):
        inst = tmp_path / f"{name}.json"
        inst.write_text(json.dumps(obj))
        code, out, err = run(capsys, argv[0], str(inst), *argv[1:])
        assert code == 0 and err == "", (name, err)
        packing = packing_from_obj(record(out)["packing"])
        cover = list_to_cover(*instance_from_obj(obj))
        assert validate_packing(cover, packing) is None


def test_chi_star_runs_past_the_recursion_limit(tmp_path, capsys):
    # a 1,500-vertex cycle (1,500 list depths) and K50 (1,176 non-forest
    # edges): both deciders used to exit 70 with RecursionError.  The
    # cycle's first assignment needs a search longer than the budget;
    # K50's first cover, all identities, has no packing
    cycle = {"n": 1500, "edges": [[v, (v + 1) % 1500] for v in range(1500)]}
    k50 = {"n": 50, "edges": [[u, v] for u in range(50) for v in range(u + 1, 50)]}
    for mode, obj, code, result in (
        ("list", cycle, 2, "budget-exceeded"),
        ("corr", k50, 1, "witness"),
    ):
        graph = tmp_path / f"{mode}.json"
        graph.write_text(json.dumps(obj))
        argv = ["chi-star", mode, str(graph), "--k", "3" if mode == "list" else "2"]
        got, out, err = run(capsys, *argv, "--budget", "1000")
        assert (got, record(out)["result"], err) == (code, result, ""), mode
    from listpack.exact import find_packing

    witness = instance_from_obj(record(out)["witness"])
    assert len(witness.matchings) == 1225 and find_packing(witness) is None
    assert set(witness.matchings.values()) == {((0, 0), (1, 1))}


def test_solve_missing_file_is_65(capsys):
    code, out, err = run(capsys, "solve", "missing.json")
    assert code == 65
    assert out == "" and err != ""


def test_solve_malformed_instance_is_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [[0, 9]], "lists": [[1], [2]]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 65 and err


def test_solve_lists_of_unequal_or_zero_size_are_65(tmp_path, capsys):
    for lists in ([[1], [1, 2]], [[], []]):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "lists": lists}))
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 65 and out == "" and "Traceback" not in err



@pytest.mark.parametrize("matchings", [[], None, 5, "0-1"])
def test_solve_non_object_matchings_is_65(tmp_path, capsys, matchings):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 2, "edges": [[0, 1]], "k": 2, "matchings": matchings})
    )
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 65 and out == "" and "matchings" in err
    assert "Traceback" not in err

def test_chi_star_k0_is_64(tmp_path, capsys):
    graph = tmp_path / "p2.json"
    graph.write_text('{"n": 2, "edges": [[0, 1]]}')
    for mode in ("list", "corr"):
        code, out, err = run(capsys, "chi-star", mode, str(graph), "--k", "0")
        assert code == 64 and out == "" and err


def test_empty_graph_packs_in_every_command(tmp_path, capsys):
    # both used to exit 70: no lists to size the list-cover by, and zero
    # augmentation rounds read as a failure to terminate
    graph = tmp_path / "empty.json"
    graph.write_text('{"n": 0, "edges": []}')
    cover = tmp_path / "cover.json"
    cover.write_text('{"n": 0, "edges": [], "k": 2, "matchings": {}}')
    for argv, result in (
        (["chi-star", "list", str(graph), "--k", "2"], "all-pack"),
        (["chi-star", "corr", str(graph), "--k", "2"], "all-pack"),
        (["pack", str(cover), "--method", "augment"], "packing"),
        (["pack", str(cover), "--method", "degenerate"], "packing"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and record(out)["result"] == result, (argv, err)


def test_chi_star_corr_large_k_exhausts_budget_not_memory(tmp_path, capsys):
    graph = tmp_path / "c4.json"
    graph.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}')
    code, out, err = run(
        capsys, "chi-star", "corr", str(graph), "--k", "9", "--budget", "10"
    )
    assert code == 2 and err == ""
    assert record(out)["result"] == "budget-exceeded"


def test_chi_star_on_an_edge_decides_k600(tmp_path, capsys):
    # 2 * 600 slots, more than the default recursion limit: no exit 70
    graph = tmp_path / "k2.json"
    graph.write_text('{"n": 2, "edges": [[0, 1]]}')
    for mode in ("list", "corr"):
        code, out, err = run(capsys, "chi-star", mode, str(graph), "--k", "600")
        assert code == 0 and err == "", (mode, err)
        assert record(out)["result"] == "all-pack"


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["chi-star", "-h"], ["matrix", "perm-zero", "-h"]]
)
def test_help_goes_to_stderr(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == ""
    assert err.startswith("usage: listpack")


def test_unexpected_exception_is_70(tmp_path, capsys, monkeypatch):
    import listpack.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "decide_chi_star_corr", broken)
    graph = tmp_path / "p2.json"
    graph.write_text('{"n": 2, "edges": [[0, 1]]}')
    code, out, err = run(capsys, "chi-star", "corr", str(graph), "--k", "2")
    assert code == 70 and out == ""
    assert len(err.splitlines()) == 1 and "RuntimeError" in err
    assert "Traceback" not in err


def test_solve_budget_exit_2(tmp_path, capsys):
    inst = tmp_path / "c4.json"
    run(capsys, "gen", "c4", "-o", str(inst))
    code, out, _ = run(capsys, "solve", str(inst), "--budget", "1")
    assert code == 2
    assert record(out)["result"] == "budget-exceeded"


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "c4.json"
    run(capsys, "gen", "c4", "-o", str(inst))
    monkeypatch.setenv("LISTPACK_BUDGET", "1")
    code, out, _ = run(capsys, "solve", str(inst))
    assert code == 2


def test_bad_budget_env_var_is_64(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "c4.json"
    run(capsys, "gen", "c4", "-o", str(inst))
    graph = tmp_path / "p2.json"
    graph.write_text('{"n": 2, "edges": [[0, 1]]}')
    monkeypatch.setenv("LISTPACK_BUDGET", "abc")
    for argv in (["solve", str(inst)], ["chi-star", "list", str(graph), "--k", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and "LISTPACK_BUDGET" in err


def test_non_positive_budget_is_64(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "c4.json"
    run(capsys, "gen", "c4", "-o", str(inst))
    graph = tmp_path / "p2.json"
    graph.write_text('{"n": 2, "edges": [[0, 1]]}')
    for budget in ("-5", "0", "1.5"):
        for argv in (
            ["solve", str(inst), "--budget", budget],
            ["chi-star", "list", str(graph), "--k", "2", "--budget", budget],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 64 and out == "" and err.startswith("--budget"), argv
    monkeypatch.setenv("LISTPACK_BUDGET", "-5")
    code, out, err = run(capsys, "solve", str(inst))
    assert code == 64 and out == "" and err.startswith("LISTPACK_BUDGET")


def test_solve_bad_colours_and_mixed_instances_are_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for obj in (
        {"n": 2, "edges": [[0, 1]], "lists": [[True, 2], [1, 2]]},
        {"n": 2, "edges": [[0, 1]], "lists": [[1.5, 2], [1, 2]]},
        {"n": 2, "edges": [[0, 1]], "lists": [[1], [2]], "k": 1, "matchings": {}},
        {"n": 2.7, "edges": [[0, True]], "lists": [[1, 2], [1, 2]]},
        {"n": 2, "edges": [[0, 1]], "k": 2.5, "matchings": {}},
        {"n": 2, "edges": [[0, 1]], "k": 2, "matchings": {"0-1": [[True, 1]]}},
    ):
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 65 and out == "" and err and "Traceback" not in err


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    from listpack.cli import _build_parser

    assert _build_parser() is _build_parser()
    inst = tmp_path / "k2.json"
    inst.write_text('{"n": 2, "edges": [[0, 1]], "lists": [[1, 2], [1, 2]]}')
    mz = ["matrix", "zero-transversal", "--n", "2", "--k", "3", "--trials", "50"]
    packing = {"k": 2, "mode": "list", "colourings": [[2, 1], [1, 2]]}
    records = {}
    for argv, want in [
        (["gen", "c4"], 0),
        (["solve", str(inst)], 0),
        (["solve", str(inst), "--bogus"], 64),
        (mz + ["--seed", "3"], 0),
        (["chi-star", "list", str(inst), "--k", "0"], 64),
        (["solve", str(inst), "--budget", "1"], 2),
        (mz + ["--seed", "4"], 0),
        (["solve", str(inst)], 0),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == want, (argv, err)
        if want == 64:
            assert out == "" and err
        else:
            records.setdefault(tuple(argv[:2]), []).append(record(out))
    assert records["gen", "c4"][0]["lists"] == [[1, 2], [1, 2], [1, 3], [2, 3]]
    solves = records["solve", str(inst)]
    assert [r["result"] for r in solves] == ["packing", "budget-exceeded", "packing"]
    assert solves[0]["packing"] == solves[2]["packing"] == packing
    seed3, seed4 = records["matrix", "zero-transversal"]
    assert seed3["predicted"] == seed4["predicted"]
    assert 0 <= seed3["estimate"] <= 1 and 0 <= seed4["estimate"] <= 1


def test_pack_non_integer_fc_and_empty_lists_are_65(tmp_path, capsys):
    p2 = tmp_path / "p2.json"
    p2.write_text('{"n": 2, "edges": [[0, 1]], "lists": [[1, 2], [1, 2]]}')
    fc = tmp_path / "fc.json"
    fc.write_text('{"a": 2.5, "b": 1, "assignment": [[0], [1]]}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 2, "edges": [], "lists": [[], []]}')
    for argv in (
        ["pack", str(p2), "--method", "fractional", "--seed", "1", "--fc", str(fc)],
        ["pack", str(empty), "--method", "degenerate"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 65 and out == "" and err and "Traceback" not in err, argv


def test_gen_unsupported_sizes_are_64(capsys):
    for argv in (
        ["gen", "kab-cover", "--d", "3"],
        ["gen", "shift", "--d", "0"],
        ["gen", "kbb", "--b", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and err, argv


def clique_cover(tmp_path, n, k):
    # K_n with the identity matching on every edge: chi_c(K_n) = n
    edges = [[u, v] for u in range(n) for v in range(u + 1, n)]
    matchings = {f"{u}-{v}": [[i, i] for i in range(k)] for u, v in edges}
    path = tmp_path / f"k{n}.json"
    obj = {"n": n, "edges": edges, "k": k, "matchings": matchings}
    path.write_text(json.dumps(obj))
    return str(path)


def test_pack_non_positive_chi_c_bound_is_64(tmp_path, capsys):
    k3 = clique_cover(tmp_path, 3, 2)
    for bound in ("-5", "0"):
        argv = ["pack", k3, "--method", "augment", "--chi-c-bound", bound]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and "--chi-c-bound" in err, bound


def test_pack_bad_max_rounds_and_max_resamples_are_64(tmp_path, capsys):
    p2 = tmp_path / "p2.json"
    p2.write_text('{"n": 2, "edges": [[0, 1]], "lists": [[1, 2], [1, 2]]}')
    fc = tmp_path / "fc.json"
    fc.write_text('{"a": 2, "b": 1, "assignment": [[0], [1]]}')
    fractional = ["pack", str(p2), "--method", "fractional", "--seed", "1"]
    bip_lll = ["pack", str(p2), "--method", "bip-lll", "--seed", "1"]
    for argv in (
        fractional + ["--fc", str(fc), "--max-rounds", "-1"],
        fractional + ["--fc", str(fc), "--max-rounds", "0"],
        bip_lll + ["--max-resamples", "-1"],
        bip_lll + ["--max-resamples", "x"],
    ):
        code, out, err = run(capsys, *argv)
        flag = argv[-2]
        assert code == 64 and out == "" and err.startswith(flag), argv
    # no resampling at all is a meaningful budget
    code, out, _ = run(capsys, *bip_lll, "--max-resamples", "0")
    assert code in (0, 1) and record(out)["method"] == "bip-lll"


#: a 5-fold cover of K4 (edge -> permutation of the slots) on which
#: pack_augment with chi_c_bound 1 meets a round with no independent
#: transversal: the first such cover among random perfect covers drawn
#: from random.Random(0) (shuffling range(5) once per edge, in order)
K4_NO_TRANSVERSAL = {
    (0, 1): [4, 0, 3, 2, 1],
    (0, 2): [2, 3, 4, 1, 0],
    (0, 3): [0, 2, 3, 1, 4],
    (1, 2): [4, 3, 0, 2, 1],
    (1, 3): [0, 4, 1, 2, 3],
    (2, 3): [1, 3, 4, 0, 2],
}


def test_pack_too_small_chi_c_bound_is_65(tmp_path, capsys):
    # chi_c(K4) = 4, so a bound of 1 voids pack_augment's guarantee: the
    # identity cover still packs, but the cover above does not
    argv = ["--method", "augment", "--chi-c-bound", "1"]
    k4 = clique_cover(tmp_path, 4, 5)
    code, out, err = run(capsys, "pack", k4, *argv)
    assert code == 0 and err == ""
    cover = instance_from_obj(json.loads(Path(k4).read_text()))
    assert validate_packing(cover, packing_from_obj(record(out)["packing"])) is None
    path = tmp_path / "k4-stuck.json"
    matchings = {f"{u}-{v}": list(enumerate(p)) for (u, v), p in K4_NO_TRANSVERSAL.items()}
    obj = {"n": 4, "edges": list(K4_NO_TRANSVERSAL), "k": 5, "matchings": matchings}
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pack", str(path), *argv)
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith("--chi-c-bound 1")


def test_pack_bad_seed_is_64(tmp_path, capsys):
    path = tmp_path / "p2.json"
    path.write_text('{"n": 2, "edges": [[0, 1]], "lists": [[1, 2], [1, 2]]}')
    for seed in ("-1", "x", str(2**128)):
        argv = ["pack", str(path), "--method", "bip-lll", "--seed", seed]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and err.startswith("--seed"), seed


def test_unknown_subcommand_is_64(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64


def test_chi_star_list_c4(tmp_path, capsys):
    graph = tmp_path / "c4g.json"
    graph.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}')
    code, out, _ = run(capsys, "chi-star", "list", str(graph), "--k", "3")
    assert code == 0
    assert record(out)["result"] == "all-pack"
    code, out, _ = run(capsys, "chi-star", "list", str(graph), "--k", "2")
    assert code == 1
    rec = record(out)
    assert rec["result"] == "witness"
    g, lists = instance_from_obj(rec["witness"])
    from listpack.exact import find_list_packing

    assert find_list_packing(g, lists) is None


def test_pack_methods(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    k3.write_text(
        json.dumps(
            {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "lists": [[1, 2, 3]] * 3}
        )
    )
    code, out, _ = run(capsys, "pack", str(k3), "--method", "complete")
    assert code == 0 and record(out)["result"] == "packing"
    # precondition violations map to 65
    code, _, err = run(capsys, "pack", str(k3), "--method", "degenerate")
    assert code == 65 and "2*degeneracy" in err

    path = tmp_path / "p4.json"
    path.write_text(
        json.dumps(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lists": [[1, 2, 3, 4]] * 4}
        )
    )
    code, out, _ = run(capsys, "pack", str(path), "--method", "bip-ordered")
    assert code == 0
    code, out, _ = run(capsys, "pack", str(path), "--method", "degenerate")
    assert code == 0

    fc = tmp_path / "fc.json"
    fc.write_text('{"a": 2, "b": 1, "assignment": [[0], [1], [0], [1]]}')
    code, out, _ = run(
        capsys,
        "pack",
        str(path),
        "--method",
        "fractional",
        "--seed",
        "3",
        "--fc",
        str(fc),
        "--max-rounds",
        "200",
    )
    assert code == 0 and record(out)["method"] == "fractional"
    # randomized methods insist on a seed
    code, _, err = run(
        capsys, "pack", str(path), "--method", "fractional", "--fc", str(fc)
    )
    assert code == 64
    code, out, _ = run(
        capsys, "pack", str(path), "--method", "bip-lll", "--seed", "1"
    )
    assert code == 0


def test_matrix_perm_zero_record(capsys):
    code, out, _ = run(
        capsys,
        "matrix",
        "perm-zero",
        "--k",
        "1",
        "--p",
        "0.25",
        "--trials",
        "20000",
        "--seed",
        "7",
    )
    assert code == 0
    rec = record(out)
    assert abs(rec["estimate"] - 0.25) < 3 * rec["ci"]
    assert rec["predicted"] == 0.5
    code, out, _ = run(
        capsys,
        "matrix",
        "perm-zero",
        "--k",
        "2",
        "--p",
        "0.5",
        "--trials",
        "5000",
        "--seed",
        "7",
        "--exact",
    )
    assert record(out)["exact"] == 9 / 16


def test_matrix_bad_params_are_64(capsys):
    pz = {"--k": "4", "--p": "0.5", "--trials": "10", "--seed": "1"}
    zt = {"--n": "2", "--k": "3", "--trials": "10", "--seed": "1"}
    for kind, flags, flag, value in [
        ("perm-zero", pz, "--seed", "-1"),
        ("perm-zero", pz, "--seed", str(2**128)),
        ("perm-zero", pz, "--trials", "0"),
        ("perm-zero", pz, "--k", "0"),
        ("perm-zero", pz, "--p", "1.5"),
        ("perm-zero", pz, "--p", "nan"),
        ("zero-transversal", zt, "--n", "0"),
        ("zero-transversal", zt, "--seed", "-1"),
    ]:
        argv = ["matrix", kind]
        for f, v in {**flags, flag: value}.items():
            argv += [f, v]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "", argv
        assert err.startswith(flag) and "Traceback" not in err, argv


def test_matrix_exact_beyond_enumeration_is_64(capsys):
    argv = ["matrix", "perm-zero", "--k", "5", "--p", "0.5", "--trials", "10"]
    code, out, err = run(capsys, *argv, "--seed", "1", "--exact")
    assert code == 64 and out == "" and err.startswith("--exact")


def test_matrix_zero_transversal_record(capsys):
    code, out, _ = run(
        capsys,
        "matrix",
        "zero-transversal",
        "--n",
        "2",
        "--k",
        "3",
        "--trials",
        "5000",
        "--seed",
        "3",
    )
    assert code == 0
    rec = record(out)
    assert abs(rec["estimate"] - 0.5) < 3 * rec["ci"]


def test_zero_transversal_ratio_is_null_when_predicted_exceeds_one(capsys):
    # the asymptotic prediction is 103.5 at (30, 11), not a probability
    code, out, _ = run(
        capsys,
        "matrix",
        "zero-transversal",
        "--n",
        "30",
        "--k",
        "11",
        "--trials",
        "10",
        "--seed",
        "5",
    )
    assert code == 0
    rec = record(out)
    assert rec["predicted"] > 1
    assert rec["ratio"] is None


def test_perm_zero_sweep_config_runs(tmp_path, capsys):
    source = Path(__file__).parent.parent / "scripts" / "perm_zero_sweep.json"
    config = json.loads(source.read_text())
    for exp in config["experiments"]:
        exp["params"]["trials"] = 10
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "experiment", str(path))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 9
    assert sorted((l["params"]["k"], l["seed"]) for l in lines) == [
        (k, seed) for k in (8, 10, 12) for seed in (1, 2, 3)
    ]


def test_experiment_runner(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "experiments": [
                    {
                        "name": "sweep-k8",
                        "kind": "perm-zero",
                        "params": {"k": 8, "p": 0.5, "trials": 2000},
                        "seeds": [1, 2],
                    },
                    {
                        "name": "zt",
                        "kind": "zero-transversal",
                        "params": {"n": 2, "k": 3, "trials": 1000},
                        "seed": 5,
                        "repetitions": 2,
                    },
                ]
            }
        )
    )
    code, out, _ = run(capsys, "experiment", str(config))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [(l["experiment"], l["seed"]) for l in lines] == [
        ("sweep-k8", 1),
        ("sweep-k8", 2),
        ("zt", 5),
        ("zt", 6),
    ]
    assert all("ratio" in l and "version" in l for l in lines)
    # byte-identical reports across runs
    _, out2, _ = run(capsys, "experiment", str(config))
    assert out2 == out


def test_experiment_config_errors(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"experiments": []}')
    code, out, _ = run(capsys, "experiment", str(empty))
    assert code == 0 and out.strip() == ""

    dup = tmp_path / "dup.json"
    dup.write_text(
        json.dumps(
            {
                "experiments": [
                    {"name": "x", "kind": "perm-zero", "params": {"k": 1, "p": 0.5, "trials": 10}, "seeds": [1]},
                    {"name": "x", "kind": "perm-zero", "params": {"k": 1, "p": 0.5, "trials": 10}, "seeds": [2]},
                ]
            }
        )
    )
    code, _, err = run(capsys, "experiment", str(dup))
    assert code == 65 and "duplicate" in err

    good = {"name": "z", "kind": "perm-zero", "params": {"k": 2, "p": 0.5, "trials": 10}}
    for entry in (
        {**good, "seed": -1},
        {**good, "seeds": [1, -1]},
        {**good, "seeds": "12"},
        {**good, "seed": 1, "params": {"k": "x", "p": 0.5, "trials": 10}},
        {**good, "seed": 1, "params": {"k": 2.5, "p": 0.5, "trials": 10}},
        {**good, "seed": 1, "params": {"k": 2, "p": True, "trials": 10}},
        {**good, "seed": 1, "params": {"k": 2, "p": 0.5, "trials": 0}},
        {**good, "seed": 1, "name": ["z"]},
        {**good, "seed": 1, "kind": ["perm-zero"]},
        {**good, "seed": 1, "params": 3},
        {**good, "seed": 1, "params": {"k": "2", "p": 0.5, "trials": 10}},
        {**good, "seed": 1, "params": {"k": 2, "p": "0.5", "trials": 10}},
        {**good, "seed": 1, "params": {"k": 2, "p": 0.5, "trials": 10.0}},
        {**good, "seed": 1, "repetitions": 2.5},
        {**good, "seed": 1, "repetitions": True},
        {**good, "seeds": ["1"]},
        "z",
    ):
        bad = tmp_path / "bad.json"
        config = {"experiments": [{**good, "name": "ok", "seed": 1}, entry]}
        bad.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", str(bad))
        assert code == 65 and out == "" and err and "Traceback" not in err, entry

    bad_kind = tmp_path / "bk.json"
    bad_kind.write_text(
        '{"experiments": [{"name": "y", "kind": "nope", "params": {}, "seeds": [1]}]}'
    )
    assert run(capsys, "experiment", str(bad_kind))[0] == 65


def one_of_each_command(tmp_path):
    """(argv, exit code) of every subcommand and pack method, a budget-
    exceeded solve and experiment configs with zero and two entries."""
    files = {
        "k3": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "lists": [[1, 2, 3]] * 3},
        "p4": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lists": [[1, 2, 3, 4]] * 4},
        "p4k5": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lists": [[1, 2, 3, 4, 5]] * 4},
        "fc": {"a": 2, "b": 1, "assignment": [[0], [1], [0], [1]]},
        "c4": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        "none": {"experiments": []},
        "two": {
            "experiments": [
                {"name": "a", "kind": "perm-zero", "params": {"k": 4, "p": 0.5, "trials": 50}, "seed": 1},
                {"name": "b", "kind": "zero-transversal", "params": {"n": 2, "k": 3, "trials": 50}, "seed": 2},
            ]
        },
    }
    path = {}
    for name, obj in files.items():
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(json.dumps(obj))
    p4, mz = path["p4"], ["--trials", "50", "--seed", "3"]
    return [
        (["gen", "kbb", "--b", "2"], 0),
        (["solve", path["k3"]], 0),
        (["solve", path["k3"], "--budget", "1"], 2),
        (["chi-star", "list", path["c4"], "--k", "2"], 1),
        (["chi-star", "list", path["c4"], "--k", "3"], 0),
        (["chi-star", "corr", path["c4"], "--k", "3"], 1),
        (["chi-star", "corr", path["c4"], "--k", "4"], 0),
        (["pack", path["k3"], "--method", "complete"], 0),
        (["pack", p4, "--method", "degenerate"], 0),
        (["pack", p4, "--method", "bip-ordered"], 0),
        (["pack", path["p4k5"], "--method", "augment"], 0),
        (["pack", p4, "--method", "fractional", "--seed", "3", "--fc", path["fc"]], 0),
        (["pack", p4, "--method", "bip-lll", "--seed", "1"], 0),
        (["matrix", "perm-zero", "--k", "3", "--p", "0.5", "--exact", *mz], 0),
        (["matrix", "zero-transversal", "--n", "2", "--k", "3", *mz], 0),
        (["experiment", path["none"]], 0),
        (["experiment", path["two"]], 0),
    ]


def test_output_file_holds_the_stdout_bytes(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    for argv, want in one_of_each_command(tmp_path):
        code, stdout, err = run(capsys, *argv)
        assert code == want and err == "", (argv, err)
        assert stdout.endswith("\n"), argv
        code, to_stdout, err = run(capsys, *argv, "-o", str(out))
        assert (code, to_stdout, err) == (want, "", ""), argv
        assert out.read_bytes() == stdout.encode(), argv


def test_solve_reads_the_instance_from_stdin(tmp_path, capsys, monkeypatch):
    k3 = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "lists": [[1, 2, 3]] * 3}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(k3))
    _, from_file, _ = run(capsys, "solve", str(path))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(k3)))
    code, out, err = run(capsys, "solve", "-")
    assert (code, out, err) == (0, from_file, "")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2'))
    code, out, err = run(capsys, "solve", "-")
    assert code == 65 and out == "" and err.startswith("-: not valid JSON")


def test_non_canonical_matching_keys_are_65(tmp_path, capsys):
    # "00-1" once overwrote "0-1": the conflict as written leaves no
    # packing, yet solve printed one
    path = tmp_path / "cover.json"
    for key in ("00-1", " 0-1", "+0-1", "0-+1", "0-1 ", "٠-1", "0_0-1", "-0-1"):
        obj = {"n": 2, "edges": [[0, 1]], "k": 1, "matchings": {"0-1": [[0, 0]], key: []}}
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 65 and out == "", key
        assert err.startswith(f"{path}: bad cover object") and "Traceback" not in err
    obj = {"n": 2, "edges": [[0, 1]], "k": 1, "matchings": {"0-1": [[0, 0]]}}
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 1 and record(out)["result"] == "none"


def test_unwritable_output_is_64(tmp_path, capsys):
    inst = tmp_path / "kab.json"
    run(capsys, "gen", "kab-cover", "-o", str(inst))
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        for argv in (
            ["gen", "c4"],
            ["solve", str(inst)],
            ["solve", str(inst), "--budget", "1"],
        ):
            code, out, err = run(capsys, *argv, "-o", str(target))
            assert code == 64 and out == "", argv
            assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


def test_budget_exceeded_record_carries_the_nodes_spent(tmp_path, capsys):
    inst = tmp_path / "kab.json"
    run(capsys, "gen", "kab-cover", "-o", str(inst))
    code, out, _ = run(capsys, "solve", str(inst), "--budget", "43")
    assert code == 2
    assert record(out) == {
        "result": "budget-exceeded",
        "nodes": 44,
        "schema": "listpack/1",
        "version": "0.1.0",
    }


# A bounded grammar of hostile command lines: every subcommand with sizes
# <= 6, trial counts <= 50 and budgets <= 2000, flag values that are junk
# about a third of the time, and instance, colouring and config files
# that are valid, malformed JSON, JSON of the wrong shape or truncated.
FUZZ_JUNK = ["0", "-1", "", "x", "2.5", "nan", "inf", "1e3"]
FUZZ_SIZE = st.sampled_from([str(i) for i in range(1, 7)] * 3 + FUZZ_JUNK)
FUZZ_PROB = st.sampled_from(
    ["0", "0.25", "0.5", "0.75", "1"] * 3 + ["1.5", "-0.1", "nan", "x"]
)
FUZZ_TRIALS = st.sampled_from(["1", "2", "31", "32", "33", "50"] * 3 + FUZZ_JUNK)
FUZZ_BUDGET = st.sampled_from(["1", "10", "100", "2000"] * 3 + FUZZ_JUNK)
FUZZ_SEED = st.sampled_from(
    ["0", "1", "7", str(2**64 + 3), str(2**128 - 1)] * 3 + ["-1", str(2**128), "x", ""]
)
FUZZ_ATOM = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([0.5, 2.0, -1.5, float("nan"), float("inf")]),
    st.text(max_size=3),
)
FUZZ_JSON = st.recursive(
    FUZZ_ATOM,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
FUZZ_PAIRS = st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2), max_size=6)


@st.composite
def fuzz_valid_instance(draw):
    """A well-formed list or cover instance on at most 6 vertices."""
    n = draw(st.integers(0, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        slots = st.lists(st.integers(1, 6), min_size=k, max_size=k, unique=True)
        return {"n": n, "edges": edges, "lists": [draw(slots) for _ in range(n)]}
    matchings = {}
    for u, v in edges:
        image = draw(st.permutations(range(k)))
        size = draw(st.integers(0, k))
        matchings[f"{u}-{v}"] = [[i, image[i]] for i in range(size)]
    return {"n": n, "edges": edges, "k": k, "matchings": matchings}


FUZZ_INSTANCE = st.fixed_dictionaries(
    {"n": st.integers(0, 6) | FUZZ_ATOM, "edges": FUZZ_PAIRS | FUZZ_JSON},
    optional={
        "lists": st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=6)
        | FUZZ_JSON,
        "matchings": st.dictionaries(
            st.sampled_from(["0-1", "1-0", "0-0", "1-2", "0-9", "x"]),
            FUZZ_PAIRS | FUZZ_JSON,
            max_size=4,
        )
        | FUZZ_JSON,
        "k": st.integers(-1, 6) | FUZZ_ATOM,
    },
)
FUZZ_FC = st.fixed_dictionaries(
    {
        "a": st.integers(-1, 6) | FUZZ_ATOM,
        "b": st.integers(-1, 3) | FUZZ_ATOM,
        "assignment": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6)
        | FUZZ_JSON,
    }
)
FUZZ_CONFIG = st.fixed_dictionaries(
    {
        "experiments": st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["a", "b"]) | FUZZ_ATOM,
                    "kind": st.sampled_from(["perm-zero", "zero-transversal", "x"]),
                    "params": st.fixed_dictionaries(
                        {},
                        optional={
                            "n": st.integers(-1, 6) | FUZZ_ATOM,
                            "k": st.integers(-1, 6) | FUZZ_ATOM,
                            "p": st.sampled_from([0, 0.5, 1, 1.5]) | FUZZ_ATOM,
                            "trials": st.integers(0, 50) | FUZZ_ATOM,
                        },
                    )
                    | FUZZ_ATOM,
                },
                optional={
                    "seed": st.integers(-1, 3) | FUZZ_ATOM,
                    "seeds": st.lists(st.integers(-1, 3), max_size=3) | FUZZ_ATOM,
                    "repetitions": st.integers(-1, 3) | FUZZ_ATOM,
                },
            )
            | FUZZ_JSON,
            max_size=3,
        )
        | FUZZ_JSON
    }
)


def fuzz_document(shaped):
    """File contents: JSON of the expected shape, any JSON, a truncated
    document or text that is no JSON at all."""
    return st.one_of(
        shaped.map(json.dumps),
        FUZZ_JSON.map(json.dumps),
        shaped.map(json.dumps).map(lambda text: text[: len(text) // 2]),
        st.text(max_size=12),
    )


def fuzz_flags(**flags):
    """--name value pairs of the optional flags, each present or not."""
    pairs = [
        st.none() | values.map(lambda v, name=name: [f"--{name}", v])
        for name, values in flags.items()
    ]
    return st.tuples(*pairs).map(lambda got: [t for pair in got if pair for t in pair])


FUZZ_COMMAND = st.one_of(
    st.tuples(FUZZ_BUDGET).map(lambda t: ["solve", "in.json", "--budget", *t]),
    st.tuples(st.sampled_from(["list", "corr"]), FUZZ_SIZE, FUZZ_BUDGET).map(
        lambda t: ["chi-star", t[0], "in.json", "--k", t[1], "--budget", t[2]]
    ),
    st.tuples(
        st.sampled_from(
            ["degenerate", "complete", "bip-ordered", "augment", "fractional"]
            + ["bip-lll"]
        ),
        st.tuples(FUZZ_SEED).map(lambda t: ["--seed", *t]),
        fuzz_flags(
            **{
                "chi-c-bound": FUZZ_SIZE,
                "max-rounds": FUZZ_SIZE,
                "max-resamples": FUZZ_SIZE,
                "fc": st.just("fc.json"),
            }
        ),
    ).map(lambda t: ["pack", "in.json", "--method", t[0], *t[1], *t[2]]),
    st.tuples(
        st.sampled_from(["c4", "kab-cover", "shift", "kbb"]),
        fuzz_flags(d=FUZZ_SIZE, b=FUZZ_SIZE),
    ).map(lambda t: ["gen", t[0], *t[1]]),
    st.tuples(FUZZ_SIZE, FUZZ_PROB, FUZZ_TRIALS, FUZZ_SEED, st.booleans()).map(
        lambda t: ["matrix", "perm-zero", "--k", t[0], "--p", t[1], "--trials", t[2]]
        + ["--seed", t[3], *(["--exact"] if t[4] else [])]
    ),
    st.tuples(FUZZ_SIZE, FUZZ_SIZE, FUZZ_TRIALS, FUZZ_SEED).map(
        lambda t: ["matrix", "zero-transversal", "--n", t[0], "--k", t[1]]
        + ["--trials", t[2], "--seed", t[3]]
    ),
    st.just(["experiment", "config.json"]),
    st.lists(
        st.sampled_from(
            ["solve", "pack", "gen", "matrix", "--k", "-o", "in.json", "x", "--"]
            + ["-h"]
        ),
        max_size=4,
    ),
)


@given(
    FUZZ_COMMAND,
    fuzz_valid_instance().map(json.dumps) | fuzz_document(FUZZ_INSTANCE),
    fuzz_document(FUZZ_FC),
    fuzz_document(FUZZ_CONFIG),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_main_fuzz_exit_codes_and_stdout(argv, instance, fc, config):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"in.json": instance, "fc.json": fc, "config.json": config}
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 64, 65), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().strip().splitlines()
    if code in (64, 65) or argv[:1] != ["experiment"]:
        assert len(lines) <= (0 if code in (64, 65) else 1), (argv, lines)
    for line in lines:
        obj = json.loads(line)
        assert "schema" in obj and "version" in obj, (argv, line)
