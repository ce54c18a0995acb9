"""Span tracer that wraps listpack's public functions from outside.

Each traced name ``<module>.<function>`` is looked up once in its home
module; the function object found there is replaced by one wrapper in
every ``listpack.*`` namespace that holds a reference to it, so calls
made through names imported elsewhere (``exact.degeneracy_order``,
``cli.find_packing``, ``constructive.perfect_matching``) are recorded
too.  A name that no longer exists is reported as absent instead of
failing the run.  Nothing private is touched.

A span's self time is its duration minus the durations of the wrapped
spans it directly encloses.
"""

from __future__ import annotations

import os
import sys
import time
import types
from typing import Callable, Optional

#: every traced function; the per-layer metric names derive from these
TRACED = (
    "cli.main",
    "core.degeneracy_order",
    "core.instance_from_obj",
    "core.validate_cover",
    "core.validate_packing",
    "core.list_to_cover",
    "core.dumps",
    "exact.find_packing",
    "exact.find_list_packing",
    "exact.find_independent_transversal",
    "exact.decide_chi_star_list",
    "exact.decide_chi_star_corr",
    "constructive.pack_degenerate",
    "constructive.pack_complete",
    "constructive.pack_bipartite_ordered",
    "constructive.pack_augment",
    "probabilistic.pack_bipartite_lll",
    "probabilistic.pack_fractional",
    "matching.perfect_matching",
    "matrixlab.one_transversal",
    "matrixlab.zero_permanent_prob_mc",
    "matrixlab.no_zero_transversal_prob_mc",
    "generators.gen_c4",
    "generators.gen_kab_cover",
    "generators.gen_shift_construction",
    "generators.gen_kbb_lists",
)

_DECIDERS = ("exact.decide_chi_star_list", "exact.decide_chi_star_corr")
_SEARCHES = ("exact.find_packing", "exact.find_list_packing")
_MC = ("matrixlab.zero_permanent_prob_mc", "matrixlab.no_zero_transversal_prob_mc")
_NONE_RATIO = _SEARCHES
_FAIL_RATIO = ("matching.perfect_matching",)
_SUCCESS_RATIO = (
    "matrixlab.one_transversal",
    "probabilistic.pack_bipartite_lll",
    "probabilistic.pack_fractional",
)


class _Span:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Aggregates calls, total and self time per traced name.

    ``recording`` gates the wrappers: while it is False they call straight
    through, so the benchmark's own output checks are not counted.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.recording = False
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[_Span] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> float:
        self._stack.append(_Span(name))
        return self.clock()

    def exit(self, name: str, start: float) -> None:
        dur = self.clock() - start
        span = self._stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - span.child_s
        if self._stack:
            self._stack[-1].child_s += dur

    def parent(self) -> Optional[str]:
        """Name of the span enclosing the innermost open one."""
        return self._stack[-2].name if len(self._stack) >= 2 else None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------

    def install(self, names=TRACED) -> None:
        """Wrap every traced function in every namespace that refers to it."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "listpack" or key.startswith("listpack."))
        ]
        for name in names:
            mod_name, _, func_name = name.partition(".")
            home = sys.modules.get(f"listpack.{mod_name}")
            original = getattr(home, func_name, None) if home else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        tracer = self
        observe = _CliObserver(name) if name == "cli.main" else _Observer(name)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            before = observe.before(args, kwargs)
            start = tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                parent = tracer.parent()
                tracer.exit(name, start)
            observe.after(tracer, parent, args, kwargs, result, before)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- report --------------------------------------------------------

    def metrics(self, passes: int = 1) -> dict[str, float]:
        """Per-layer values averaged over ``passes`` traced passes."""
        out: dict[str, float] = {}
        per = 1.0 / max(passes, 1)
        for name in TRACED:
            calls = self.calls.get(name, 0)
            out[f"{name}.calls"] = calls * per
            out[f"{name}.total_s"] = self.total_s.get(name, 0.0) * per
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) * per
        c = self.counters
        out["core.degeneracy_order.vertices"] = c.get("vertices", 0) * per
        out["cli.main.bytes_in"] = c.get("bytes_in", 0) * per
        out["cli.main.bytes_out"] = c.get("bytes_out", 0) * per
        for name in _NONE_RATIO:
            out[f"{name}.none_ratio"] = _ratio(c.get(f"{name}.none", 0), self.calls.get(name, 0))
        searches = sum(c.get(f"{name}.in_decider", 0) for name in _SEARCHES)
        deciders = sum(self.calls.get(name, 0) for name in _DECIDERS)
        out["exact.instances"] = _ratio(searches, deciders)
        out["constructive.pack_augment.rounds"] = c.get("augment_rounds", 0) * per
        for name in _FAIL_RATIO:
            out[f"{name}.fail_ratio"] = _ratio(c.get(f"{name}.none", 0), self.calls.get(name, 0))
        for name in _MC:
            trials = c.get(f"{name}.trials", 0)
            out[f"{name}.trials"] = trials * per
            out[f"{name}.hits"] = c.get(f"{name}.hits", 0) * per
            out[f"{name}.us_per_trial"] = _ratio(self.total_s.get(name, 0.0) * 1e6, trials)
        for name in _SUCCESS_RATIO:
            calls = self.calls.get(name, 0)
            out[f"{name}.success_ratio"] = _ratio(calls - c.get(f"{name}.none", 0), calls)
        out["trace.absent"] = len(self.absent)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Observer:
    """Per-name counters taken from a call's arguments and result."""

    def __init__(self, name: str):
        self.name = name

    def before(self, args, kwargs):
        return None

    def after(self, tracer: Tracer, parent, args, kwargs, result, before) -> None:
        name = self.name
        if result is None and name in _NONE_RATIO + _FAIL_RATIO + _SUCCESS_RATIO:
            tracer.count(f"{name}.none")
        if name in _SEARCHES and parent in _DECIDERS:
            tracer.count(f"{name}.in_decider")
        if name == "exact.find_independent_transversal" and parent == "constructive.pack_augment":
            tracer.count("augment_rounds")
        if name == "core.degeneracy_order":
            graph = args[0] if args else kwargs.get("g")
            tracer.count("vertices", getattr(graph, "n", 0))
        if name in _MC:
            trials = args[2] if len(args) > 2 else kwargs["trials"]
            tracer.count(f"{name}.trials", trials)
            tracer.count(f"{name}.hits", round(result[0] * trials))


class _CliObserver(_Observer):
    """Bytes of the input files named on the command line and of the
    ``-o`` output file."""

    def before(self, args, kwargs):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        size = 0
        for i, arg in enumerate(argv):
            if i and argv[i - 1] in ("-o", "--output"):
                continue
            if isinstance(arg, str) and os.path.isfile(arg):
                size += os.path.getsize(arg)
        return argv, size

    def after(self, tracer, parent, args, kwargs, result, before) -> None:
        argv, size_in = before
        tracer.count("bytes_in", size_in)
        for flag, path in zip(argv, argv[1:]):
            if flag in ("-o", "--output") and os.path.isfile(path):
                tracer.count("bytes_out", os.path.getsize(path))


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return list(Tracer().metrics()) + ["trace.overhead_s", "host.calib_s"]
