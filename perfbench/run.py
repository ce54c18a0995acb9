#!/usr/bin/env python3
"""listpack benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up builds the workload's inputs (several times; the median
is ``setup_s``), then passes run every job back to back through
``listpack.cli.main`` while another pass fits in ``--seconds``.  Every
output is checked after its pass.  Each time is the median over passes,
taken per job and summed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it carries diagnostics: the workload's named metrics,
raw timings, the host calibration time and the output fingerprint.

Host-normalised seconds.  A shared host's speed can drift by tens of
percent over tens of seconds, and CPU time drifts with wall time.  So a
short fixed loop (LOOPS) is timed between segments of about SEGMENT_S
seconds of jobs, and each segment's time is scaled by CALIB_REF_S over
the mean of the two loops around it.  Gated times are these
host-normalised seconds: the time the work would take on a host where
the loop takes CALIB_REF_S.  Raw times are printed as diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: number of timed set-ups per run; setup_s is their median
SETUPS = 5

#: time of calibrate() at the reference host speed
CALIB_REF_S = 0.005

#: jobs are timed in segments of at least this many raw seconds
SEGMENT_S = 0.25

#: the part times under each workload's own metric names; the Monte
#: Carlo rates are the part's trial count over its time
NAMED = {
    "exact": {"a": "chi_list_s", "b": "chi_corr_s", "c": "solve_s"},
    "montecarlo": {"a": "pz_trials_per_s", "b": "pzf_trials_per_s", "c": "zt_trials_per_s"},
    "construct": {"a": "pack_degenerate_s", "b": "pack_augment_s", "c": "pack_random_s"},
}

PARTS = ("a", "b", "c")


def _python_loop() -> None:
    acc = 0
    for i in range(50_000):
        acc = (acc + i * i) % 1_000_003


def _numpy_loop() -> None:
    """Generator set-up, a small draw and a bit loop per step: the
    instruction mix of the Monte Carlo trials, which a pure-Python loop
    tracks poorly (over 100 s on a shared 2-core host, normalised
    chunk times spread 10% with the Python loop and 3% with this one)."""
    import numpy as np

    for i in range(100):
        u = np.random.Generator(np.random.Philox(key=i)).random(144)
        mask = 0
        for j in range(144):
            if u[j] >= 0.5:
                mask |= 1 << (j % 12)


#: calibration loop per workload, each taking about CALIB_REF_S
LOOPS = {"exact": _python_loop, "montecarlo": _numpy_loop, "construct": _python_loop}


def calibrate(workload: str) -> float:
    """Time of the workload's fixed calibration loop; tracks how fast the
    host runs this kind of code right now."""
    start = time.perf_counter()
    LOOPS[workload]()
    return time.perf_counter() - start


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs one workload's jobs and checks their outputs.

    With a tracer attached, recording is on during set-up and during the
    jobs of a pass, and off while outputs are checked.
    """

    def __init__(self, workload: str, seed: int, workdir: str, tiny: bool):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.tracer = None
        self.jobs: list = []
        self.verdicts: dict = {}  # job name -> (answer, error or None)
        self.attempted = 0
        self.failed = 0
        self.calibs: list = []

    def _calibrate(self) -> float:
        c = calibrate(self.workload)
        self.calibs.append(c)
        return c

    def _record(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.recording = on

    def setup(self) -> tuple[float, float]:
        """Build the inputs; returns (host-normalised, raw) seconds."""
        before = self._calibrate()
        self._record(True)
        start = time.perf_counter()
        try:
            self.jobs = self.wl.WORKLOADS[self.workload](self.seed, self.workdir, self.tiny)
        finally:
            raw = time.perf_counter() - start
            self._record(False)
        return raw * CALIB_REF_S * 2 / (before + self._calibrate()), raw

    def run_pass(self) -> tuple[dict, float]:
        """Run every job once; returns host-normalised seconds per job
        name and the raw seconds of all jobs."""
        from listpack import cli

        clock = time.perf_counter
        times: dict = {}
        segment: list = []  # names of the jobs run since the last loop
        codes = []
        raw = 0.0
        before = self._calibrate()
        for i, job in enumerate(self.jobs):
            out = os.path.join(self.workdir, f"out-{job.name}.json")
            self._record(True)
            t0 = clock()
            try:
                code = cli.main([*job.argv, "-o", out])
            except Exception:  # a crash is one failed job, not a failed run
                code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            dt = clock() - t0
            self._record(False)
            codes.append(code)
            segment.append(job.name)
            times[job.name] = dt
            raw += dt
            if sum(times[name] for name in segment) >= SEGMENT_S or i == len(self.jobs) - 1:
                after = self._calibrate()
                scale = CALIB_REF_S * 2 / (before + after)
                for name in segment:
                    times[name] *= scale
                segment.clear()
                before = after
        for job, code in zip(self.jobs, codes):
            self._check(job, code)
        return times, raw

    def _check(self, job, code) -> None:
        out = os.path.join(self.workdir, f"out-{job.name}.json")
        self.attempted += 1
        error = None
        if code != job.expect:
            error = f"exit {code!r}, expected {job.expect}"
        else:
            try:
                with open(out) as fh:
                    record = json.loads(fh.read().strip().splitlines()[-1])
            except (OSError, ValueError, IndexError) as exc:
                error = f"unreadable output: {exc}"
            else:
                answer = self.wl.answer(record)
                seen = self.verdicts.get(job.name)
                if seen is None:
                    try:
                        error = job.check(record)
                    except (KeyError, TypeError, ValueError) as exc:
                        error = f"malformed record: {exc!r}"
                    self.verdicts[job.name] = (answer, error)
                elif answer != seen[0]:
                    error = "answer differs from the first pass"
                else:
                    error = seen[1]
        if os.path.exists(out):
            os.remove(out)
        if error is not None:
            self.failed += 1
            print(f"FAIL {self.workload}/{job.name}: {error}", file=sys.stderr)

    def passes(self, until: float, setup_each: bool = False) -> dict:
        """Passes back to back, each with a fresh set-up if asked, while
        another pass as long as the last one ends before ``until`` (at
        least one).  Returns the median host-normalised seconds per part
        and in total ("wall"), summed over the jobs' medians over passes,
        and the median raw seconds of a pass ("raw_wall")."""
        times: dict = {}
        raws = []
        last = 0.0
        while not raws or time.perf_counter() + last < until:
            start = time.perf_counter()
            if setup_each:
                self.setup()
            job_times, raw = self.run_pass()
            for name, t in job_times.items():
                times.setdefault(name, []).append(t)
            raws.append(raw)
            last = time.perf_counter() - start
        out = dict.fromkeys(PARTS, 0.0)
        for job in self.jobs:
            out[job.part] += _median(times[job.name])
        out["wall"] = sum(out[part] for part in PARTS)
        out["raw_wall"] = _median(raws)
        out["passes"] = len(raws)
        return out

    def fingerprint(self) -> str:
        answers = sorted((name, a) for name, (a, _) in self.verdicts.items())
        blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def trials(self, part: str) -> int:
        """Monte Carlo trials run by one pass of a part."""
        return sum(
            int(job.argv[job.argv.index("--trials") + 1])
            for job in self.jobs
            if job.part == part
        )


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run.  Returns the result object, with diagnostics
    under the extra key "diagnostics"."""
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workload, seed, workdir, tiny)
        setups = [runner.setup() for _ in range(1 if tiny else SETUPS)]
        start = time.perf_counter()
        # a traced run spends its first half untraced, for trace.overhead_s
        plain = runner.passes(start + (seconds / 2 if trace else seconds))
        diagnostics = {
            "workload": workload,
            "seed": seed,
            "passes": plain["passes"],
            "raw_setup_s": _median([raw for _, raw in setups]),
            "raw_wall_s": plain["raw_wall"],
            "fingerprint": runner.fingerprint(),
        }
        if trace:
            metrics = _per_layer(runner, plain, start + seconds)
        else:
            metrics = _end_to_end(runner, plain, [norm for norm, _ in setups])
            diagnostics["named"] = _named(runner, plain)
        diagnostics["calib_s"] = _median(runner.calibs)
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
            "diagnostics": diagnostics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


def _end_to_end(runner: Runner, plain: dict, setups: list) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "wall_s": {"value": plain["wall"], "unit": "s"},
    }
    for part in PARTS:
        metrics[f"part_{part}_s"] = {"value": plain[part], "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
    metrics["success_rate"] = {
        "value": 1.0 - runner.failed / max(runner.attempted, 1),
        "unit": "ratio",
    }
    return metrics


def _named(runner: Runner, plain: dict) -> dict:
    """The part times under the workload's own metric names."""
    named = {}
    for part, name in NAMED[runner.workload].items():
        value = plain[part]
        if name.endswith("_per_s"):
            named[name] = {"value": runner.trials(part) / value, "unit": "1/s"}
        else:
            named[name] = {"value": value, "unit": "s"}
    return named


def _per_layer(runner: Runner, plain: dict, until: float) -> dict:
    """Traced passes, each with its own set-up, until ``until``; values
    are averaged per traced pass.  Span times are raw seconds;
    trace.overhead_s is host-normalised like wall_s."""
    from tracer import Tracer, per_layer_names

    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.passes(until, setup_each=True)
    finally:
        runner.tracer = None
        tracer.uninstall()
    values = tracer.metrics(passes=traced["passes"])
    values["trace.overhead_s"] = traced["wall"] - plain["wall"]
    values["host.calib_s"] = _median(runner.calibs)
    return {name: {"value": values[name], "unit": unit_of(name)} for name in per_layer_names()}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".bytes_in", ".bytes_out")):
        return "bytes"
    if name.endswith(".us_per_trial"):
        return "us"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="listpack benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(NAMED))
    ap.add_argument("--seed", type=int, default=1)  # workloads.DEFAULT_SEED
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "listpack", "cli.py")):
        print(f"no listpack sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result.pop("diagnostics"), sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
