"""Command-line surface.

Subcommands: solve, chi-star, pack, gen, matrix, experiment.  stdout
carries exactly one machine-readable payload (single-line JSON records
stamped with "schema" and "version", or a JSON-lines report); anything
human-readable goes to stderr.  "-" stands for stdin/stdout.

Exit codes: 0 packing found / all-pack / estimator ran; 1 no packing /
witness found; 2 search budget exceeded; 64 usage errors (unknown
subcommand, bad or out-of-range flags, a bad LISTPACK_BUDGET); 65
malformed instance or config, or a --chi-c-bound too small for the
cover; 70 any other exception (a bug), reported on one stderr line
without a traceback.  The LISTPACK_BUDGET environment variable
overrides the default search budget for solve and chi-star.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .constructive import (
    PackingError,
    pack_augment,
    pack_bipartite_ordered,
    pack_complete,
    pack_degenerate,
)
from .core import (
    CorrespondenceCover,
    InstanceFormatError,
    SCHEMA_VERSION,
    _graph_from_obj,
    checked_int,
    dumps,
    instance_from_obj,
    instance_to_obj,
    list_to_cover,
    packing_to_obj,
)
from .exact import (
    BudgetExceeded,
    decide_chi_star_corr,
    decide_chi_star_list,
    find_list_packing,
    find_packing,
)
from .generators import (
    gen_c4,
    gen_kab_cover,
    gen_kbb_lists,
    gen_shift_construction,
)
from .matrixlab import (
    MAX_EXACT_PROB_K,
    no_zero_transversal_prob_mc,
    zero_permanent_prob_exact,
    zero_permanent_prob_mc,
)
from .probabilistic import (
    FractionalColoring,
    pack_bipartite_lll,
    pack_fractional,
)

EXIT_OK = 0
EXIT_NONE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70


class _UsageError(Exception):
    """Bad flag or environment value; maps to exit 64."""


class _DataError(Exception):
    """Malformed instance/config; maps to exit 65."""


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _DataError(f"{path}: not valid JSON: {exc}") from exc


def _read_instance(path: str):
    try:
        return instance_from_obj(_read_json(path))
    except InstanceFormatError as exc:
        raise _DataError(f"{path}: {exc}") from exc


def _write_line(line: str, out: str) -> None:
    if out == "-":
        print(line)
    else:
        with open(out, "w") as fh:
            fh.write(line + "\n")


def _record(**fields) -> str:
    fields.setdefault("schema", SCHEMA_VERSION)
    fields.setdefault("version", __version__)
    return dumps(fields)


def _default_budget(args) -> Optional[int]:
    if args.budget is not None:
        return _flag("budget", args.budget)
    env = os.environ.get("LISTPACK_BUDGET")
    return _flag("budget", env, "LISTPACK_BUDGET") if env else None


def _cmd_solve(args) -> int:
    budget = _default_budget(args)
    instance = _read_instance(args.instance)
    if isinstance(instance, CorrespondenceCover):
        packing = find_packing(instance, budget=budget)
    else:
        packing = find_list_packing(*instance, budget=budget)
    if packing is None:
        _write_line(_record(result="none"), args.output)
        return EXIT_NONE
    _write_line(
        _record(result="packing", packing=packing_to_obj(packing)),
        args.output,
    )
    return EXIT_OK


def _cmd_chi_star(args) -> int:
    k = _flag("k", args.k)
    budget = _default_budget(args)
    obj = _read_json(args.graph)
    try:
        g = _graph_from_obj(obj)
    except InstanceFormatError as exc:
        raise _DataError(f"{args.graph}: {exc}") from exc
    decide = decide_chi_star_list if args.mode == "list" else decide_chi_star_corr
    witness = decide(g, k, budget=budget)
    if witness is None:
        _write_line(_record(result="all-pack", k=k), args.output)
        return EXIT_OK
    if args.mode == "list":
        payload = instance_to_obj((g, witness))
    else:
        payload = instance_to_obj(witness)
    _write_line(_record(result="witness", k=k, witness=payload), args.output)
    return EXIT_NONE


def _as_cover(instance) -> CorrespondenceCover:
    if isinstance(instance, CorrespondenceCover):
        return instance
    return list_to_cover(*instance)


def _cmd_pack(args) -> int:
    seed = _flag("seed", args.seed)
    chi_c_bound = _flag("chi-c-bound", args.chi_c_bound)
    max_rounds = _flag("max-rounds", args.max_rounds)
    max_resamples = _flag("max-resamples", args.max_resamples)
    instance = _read_instance(args.instance)
    list_only = ("complete", "bip-ordered", "fractional")
    if isinstance(instance, CorrespondenceCover) and args.method in list_only:
        raise _DataError(f"method {args.method} needs a list-mode instance")
    try:
        if args.method == "degenerate":
            packing = pack_degenerate(_as_cover(instance))
        elif args.method == "complete":
            g, lists = instance
            packing = pack_complete(lists, lists.uniform_size())
        elif args.method == "bip-ordered":
            packing = pack_bipartite_ordered(*instance)
        elif args.method == "augment":
            try:
                packing = pack_augment(_as_cover(instance), chi_c_bound)
            except PackingError as exc:
                if chi_c_bound is None:
                    raise  # the default bound always holds: a bug
                raise _DataError(f"--chi-c-bound {chi_c_bound}: {exc}") from None
        elif args.method == "fractional":
            if seed is None or args.fc is None:
                raise _UsageError("method fractional requires --seed and --fc")
            fc_obj = _read_json(args.fc)
            try:
                fc = FractionalColoring.from_sets(
                    checked_int(fc_obj["a"], "a"),
                    checked_int(fc_obj["b"], "b"),
                    [
                        [checked_int(c, "class member") for c in members]
                        for members in fc_obj["assignment"]
                    ],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise _DataError(f"{args.fc}: bad fractional colouring: {exc}")
            g, lists = instance
            packing = pack_fractional(
                g, lists, fc, max_rounds=max_rounds, seed=seed
            )
        elif args.method == "bip-lll":
            if seed is None:
                raise _UsageError("method bip-lll requires --seed")
            packing = pack_bipartite_lll(
                _as_cover(instance),
                max_resamples=max_resamples,
                seed=seed,
            )
        else:  # pragma: no cover - argparse restricts choices
            return EXIT_USAGE
    except ValueError as exc:
        raise _DataError(f"precondition failed: {exc}") from exc
    if packing is None:
        _write_line(_record(result="none", method=args.method), args.output)
        return EXIT_NONE
    _write_line(
        _record(
            result="packing",
            method=args.method,
            packing=packing_to_obj(packing),
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        if args.family == "c4":
            instance = gen_c4()
        elif args.family == "kab-cover":
            instance = gen_kab_cover(args.d)
        elif args.family == "shift":
            instance = gen_shift_construction(args.d)
        else:
            instance = gen_kbb_lists(args.b)
    except ValueError as exc:  # a size the family does not support
        raise _UsageError(f"gen {args.family}: {exc}") from None
    _write_line(_record(**instance_to_obj(instance)), args.output)
    return EXIT_OK


#: experiment kind -> (required params, run(params, seed) -> (estimate,
#: ci), predicted(params)); shared by the matrix and experiment commands,
#: which pass params checked by _param
_ESTIMATORS = {
    "perm-zero": (
        ("k", "p", "trials"),
        lambda q, seed: zero_permanent_prob_mc(q["k"], q["p"], q["trials"], seed),
        lambda q: 2 * q["k"] * q["p"] ** q["k"],
    ),
    "zero-transversal": (
        ("n", "k", "trials"),
        lambda q, seed: no_zero_transversal_prob_mc(
            q["n"], q["k"], q["trials"], seed
        ),
        lambda q: 3 * q["k"] ** 2 * math.exp(-q["n"] ** (0.2 / 3)),
    ),
}


#: numeric parameter -> (type, holds, requirement): the one check of
#: each numeric flag and experiment entry; seeds key a Philox
#: generator, which takes keys in [0, 2^128), and a zero resampling
#: budget is meaningful where no other count is
_PARAMS = {
    "n": (int, lambda x: x >= 1, "a positive integer"),
    "k": (int, lambda x: x >= 1, "a positive integer"),
    "trials": (int, lambda x: x >= 1, "a positive integer"),
    "repetitions": (int, lambda x: x >= 1, "a positive integer"),
    "p": (float, lambda x: 0 <= x <= 1, "a probability in [0, 1]"),
    "seed": (int, lambda x: 0 <= x < 2**128, "an integer in [0, 2^128)"),
    "budget": (int, lambda x: x >= 1, "a positive integer"),
    "chi-c-bound": (int, lambda x: x >= 1, "a positive integer"),
    "max-rounds": (int, lambda x: x >= 1, "a positive integer"),
    "max-resamples": (int, lambda x: x >= 0, "a non-negative integer"),
}


def _param(name: str, value, what: Optional[str] = None):
    """value checked as the parameter name: a JSON integer (never true
    or 1.0), or for p any JSON number; ValueError naming what (default:
    name) if it is not or is out of range."""
    kind, holds, requirement = _PARAMS[name]
    try:
        is_float = kind is float and type(value) is float
        x = value if is_float else checked_int(value, name)
    except ValueError:
        x = None
    if x is None or not holds(x):
        raise ValueError(f"{what or name} must be {requirement}, got {value!r}")
    return kind(x)


def _flag(name: str, text: Optional[str], what: Optional[str] = None):
    """The flag --name (or the setting what) turned into a number by
    int() or float() and checked by _param; None if absent, _UsageError
    if it is bad."""
    if text is None:
        return None
    try:
        value = _PARAMS[name][0](text)
    except ValueError:
        value = text  # not a number: _param rejects it
    try:
        return _param(name, value, what or f"--{name}")
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _estimate(kind: str, params: dict, seed: int) -> dict:
    """estimate, ci, predicted and ratio of one estimator run; ratio is
    null unless predicted is a probability in (0, 1]."""
    _, run, predict = _ESTIMATORS[kind]
    est, ci = run(params, seed)
    predicted = predict(params)
    ratio = est / predicted if 0 < predicted <= 1 else None
    return dict(estimate=est, ci=ci, predicted=predicted, ratio=ratio)


def _cmd_matrix(args) -> int:
    params = {q: _flag(q, vars(args)[q]) for q in _ESTIMATORS[args.experiment][0]}
    seed = _flag("seed", args.seed)
    if args.exact and params["k"] > MAX_EXACT_PROB_K:
        raise _UsageError(f"--exact supports k <= {MAX_EXACT_PROB_K} only")
    fields = _estimate(args.experiment, params, seed)
    if args.exact:
        exact = zero_permanent_prob_exact(params["k"], params["p"])
        fields["exact"] = float(exact)
    _write_line(_record(**fields), args.output)
    return EXIT_OK


def _experiment_jobs(experiments: list) -> list:
    """(name, kind, params, checked params, seeds) of every config entry;
    _DataError on the first bad one."""
    jobs = []
    for index, exp in enumerate(experiments):
        try:
            name, kind = exp["name"], exp["kind"]
            if not isinstance(name, str):
                raise TypeError(f"name {name!r} is not a string")
            params = exp.get("params", {})
            if kind not in _ESTIMATORS:
                raise _DataError(f"experiment {name!r}: unknown kind {kind!r}")
            missing = [p for p in _ESTIMATORS[kind][0] if p not in params]
            if missing:
                raise _DataError(f"experiment {name!r}: missing params {missing}")
            seeds = exp.get("seeds")
            if seeds is None:
                base = _param("seed", exp["seed"])
                repetitions = _param("repetitions", exp.get("repetitions", 1))
                seeds = [base + i for i in range(repetitions)]
            elif not isinstance(seeds, list):
                raise TypeError(f"seeds {seeds!r} is not an array")
            checked = {q: _param(q, params[q]) for q in _ESTIMATORS[kind][0]}
            seeds = [_param("seed", s) for s in seeds]
        except (KeyError, TypeError, ValueError) as exc:
            raise _DataError(f"experiment entry {index}: {exc}") from exc
        jobs.append((name, kind, params, checked, seeds))
    return jobs


def _cmd_experiment(args) -> int:
    config = _read_json(args.config)
    if not isinstance(config, dict) or not isinstance(
        config.get("experiments"), list
    ):
        raise _DataError("config must be an object with an 'experiments' array")
    jobs = _experiment_jobs(config["experiments"])
    names = [job[0] for job in jobs]
    if len(names) != len(set(names)):
        raise _DataError("duplicate experiment names in config")
    lines = [
        _record(
            experiment=name,
            kind=kind,
            params=params,
            seed=seed,
            **_estimate(kind, checked, seed),
        )
        for name, kind, params, checked, seeds in jobs
        for seed in seeds
    ]
    _write_line("\n".join(lines) if lines else "", args.output)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listpack",
        description="list/correspondence packing solvers and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", default="-")

    p = sub.add_parser(
        "solve", parents=[out], help="exact packing search on an instance"
    )
    p.add_argument("instance")
    p.add_argument("--budget")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("chi-star", parents=[out], help="decide a packing number bound")
    p.add_argument("mode", choices=["list", "corr"])
    p.add_argument("graph")
    p.add_argument("--k", required=True)
    p.add_argument("--budget")
    p.set_defaults(func=_cmd_chi_star)

    p = sub.add_parser(
        "pack", parents=[out], help="run a constructive/randomized packer"
    )
    p.add_argument("instance")
    p.add_argument(
        "--method",
        required=True,
        choices=[
            "degenerate",
            "complete",
            "bip-ordered",
            "augment",
            "fractional",
            "bip-lll",
        ],
    )
    p.add_argument("--chi-c-bound")
    p.add_argument("--seed")
    p.add_argument("--fc")
    p.add_argument("--max-rounds", default="100")
    p.add_argument("--max-resamples")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("gen", parents=[out], help="emit an extremal instance")
    p.add_argument("family", choices=["c4", "kab-cover", "shift", "kbb"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b", type=int, default=2)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("matrix", help="random-matrix Monte Carlo estimators")
    msub = p.add_subparsers(dest="experiment", required=True)
    for kind, (required, _, _) in _ESTIMATORS.items():
        mp = msub.add_parser(kind, parents=[out])
        for name in (*required, "seed"):  # parsed by _param, not argparse
            mp.add_argument(f"--{name}", required=True)
        mp.set_defaults(func=_cmd_matrix, exact=False)
    msub.choices["perm-zero"].add_argument("--exact", action="store_true")

    p = sub.add_parser(
        "experiment", parents=[out], help="run a JSON config of experiments"
    )
    p.add_argument("config")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded:
        _write_line(_record(result="budget-exceeded"), args.output)
        return EXIT_BUDGET
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (_DataError, InstanceFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a bug; exit 1 would read as a witness
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
