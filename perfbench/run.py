"""negocc benchmark: one seeded workload, end to end or per layer.

    python3 perfbench/run.py --workload {study,query,bulk} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's operations in a closed loop, in
this process, through ``negocc.cli.execute(argv)``: the console entry point
without the interpreter start.  Each operation's stdout goes to a file
under ``perfbench/out/``, as a shell redirect would send it.  Passes over
the fixed operation list repeat until about ``--seconds`` have been measured,
and set-up spawns are timed between passes.

On a shared virtual machine a CPU can run 30-50% slower for seconds to
minutes at a time while a neighbour is busy, so a raw time follows the
neighbour more than the program.  The benchmark therefore times a fixed
pure-Python calibration loop, which the program never runs, next to every
measurement: before and after each operation, at each checkpoint inside a
long one (``CHECKPOINTS``) and around each set-up spawn.  Each stretch of
program time is scaled by the reference loop time over the mean of the
loop times at its two ends: the seconds it would take on a CPU that runs
the loop in ``REFERENCE_LOOP_S``.  The process is pinned to one CPU so
that the loop and the program share it.  ``wall_s`` is the median over
passes of the scaled pass time, ``setup_s`` the median scaled spawn; the
raw figures are printed beside them and kept in the result file.

Every operation's output is then checked against independent references
(``reference.py``).  A nonzero exit, an uncaught exception or a wrong
output counts as a failed operation with its class; none stops the run.
``correct`` is false when an output is wrong, when outputs differ between
passes, or when traced and untraced outputs differ.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead``.  Both print the digest of the
program's stdout, which is the same for the same seed.  The last line is
one JSON object; the result with the environment, the failures and, for
traced runs, the spans are written under ``perfbench/out/``.
"""

import os

# one BLAS/OpenMP thread, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SPAWNS_PER_PASS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from negocc.cli import execute; execute(['--help'])"
)
TIME_UNITS = ("s", "ms", "us", "ns")
UNITS = {
    kind: {m["name"]: m["unit"] for m in metrics}
    for kind, metrics in json.loads((ROOT / "BENCHMARK.json").read_text()).items()
    if kind in ("end_to_end", "per_layer")
}
CALIBRATION_LOOP = 2000
# the loop's time at the reference speed: about its fastest on a 2-vCPU
# Intel Xeon virtual machine
REFERENCE_LOOP_S = 100e-6
# Functions at which a long operation's time is split into stretches, each
# scaled by the calibration loop at its ends (``rse_block`` makes one exact
# block per m).
CHECKPOINTS = {
    "study": (("negocc.accuracy", "log_pmf_block"),),
}
WARM_UP = (
    ("pmf", "--m", "12", "--k", "5", "--theta", "0.5"),
    ("pmf", "--m", "1200", "--k", "1200", "--theta", "1", "--method", "auto"),
    ("quantile", "--m", "12", "--k", "5", "--theta", "0.5", "--p", "0.9"),
    ("moments", "--m", "12", "--k", "5", "--theta", "0.5", "--format", "json"),
    ("sample", "--m", "12", "--k", "5", "--theta", "0.5", "--n", "10"),
    ("rse-block", "--m", "4", "--summaries"),
)


def load_program():
    """Import negocc.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("negocc.cli")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"negocc was imported from {cli.__file__}, not {src}")
    return cli


def environment(seed: int) -> dict:
    import mpmath
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def loop_time() -> float:
    """The calibration loop's fastest time of three, now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between loop times ``before`` and ``after``,
    at the reference speed."""
    return seconds * REFERENCE_LOOP_S * 2.0 / (before + after)


def measure_setup(count: int) -> list:
    """(raw, scaled) seconds for each of ``count`` fresh interpreters to
    import negocc.cli and build its parser."""
    times = []
    for _ in range(count):
        before = loop_time()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        raw = time.perf_counter() - start
        times.append((raw, scaled(raw, before, loop_time())))
    return times


def op_times(passes) -> list:
    """Each operation's median scaled time over the given passes."""
    return [float(np.median([p.scaled[i] for p in passes]))
            for i in range(len(passes[0].scaled))]


class Checkpoints:
    """(time, loop time, time) at each call of a workload's checkpoint
    functions, recorded by a thin wrapper at the module that binds each
    one; the loop is timed between the two times."""

    def __init__(self, points):
        self.marks = []
        self._patched = []
        for mod_name, attr in points:
            module = sys.modules[mod_name]
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def _wrap(self, fn):
        marks = self.marks

        @functools.wraps(fn)
        def checkpoint(*args, **kwargs):
            start = time.perf_counter()
            speed = loop_time()
            marks.append((start, speed, time.perf_counter()))
            return fn(*args, **kwargs)

        return checkpoint

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


class Pass:
    """One pass over the operation list: raw and scaled latency, status
    and output digest per operation."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latency = []  # seconds in the program, calibration left out
        self.scaled = []
        self.status = []  # None when the CLI exited 0, else the failure class
        self.digest = []
        self.nbytes = []
        self.nrows = []

    @property
    def wall(self) -> float:
        return sum(self.latency)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def _failure_class(code, stderr: str) -> str:
    message = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    message = message.removeprefix("negocc: ")
    return f"exit{code}: {message}"


def run_pass(cli, ops, work, tracer=None, checkpoints=None) -> Pass:
    result = Pass(tracer is not None)
    marks = checkpoints.marks if checkpoints is not None else []
    for i, op in enumerate(ops):
        # each operation starts from a collected heap, as a fresh process would
        gc.collect()
        path = work / f"{i}.out"
        err = io.StringIO()
        if tracer is not None:
            tracer.op = i
        with open(path, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            marks.clear()
            before = loop_time()
            start = time.perf_counter()
            try:
                code = cli.execute(list(op.argv))
                status = None if code == 0 else _failure_class(code, err.getvalue())
            except Exception as exc:  # an uncaught exception is a traceback
                status = f"traceback: {type(exc).__name__}"
            end = time.perf_counter()
            after = loop_time()
        # stretches of program time between calibrations
        edges = [(None, before, start), *marks, (end, after, None)]
        raw = [(b[0] - a[2], a[1], b[1]) for a, b in zip(edges, edges[1:])]
        result.latency.append(sum(r[0] for r in raw))
        result.scaled.append(sum(scaled(*r) for r in raw))
        data = path.read_bytes()
        result.status.append(status)
        result.digest.append(hashlib.sha256(data).hexdigest())
        result.nbytes.append(len(data))
        result.nrows.append(data.count(b"\n"))
    return result


def run_passes(cli, ops, work, seconds, trace, setup, points=()) -> tuple:
    """Passes until about ``seconds`` of operations have been measured: the
    next pass starts only if it should end less than half a pass past the
    mark.  With tracing, untraced and traced passes alternate, at least
    one of each; without, set-up spawns are timed into ``setup`` before
    every pass.  Untraced passes record the ``points`` checkpoints."""
    from tracer import Tracer

    passes, tracers = [], []
    measured = 0.0
    while True:
        if not trace:
            setup.extend(measure_setup(SETUP_SPAWNS_PER_PASS))
        traced = trace and len(passes) % 2 == 1
        tracer = checkpoints = None
        if traced:
            tracer = Tracer()
            tracer.keep_spans = not tracers
            tracer.install()
        elif points:
            checkpoints = Checkpoints(points)
        try:
            p = run_pass(cli, ops, work, tracer, checkpoints)
        finally:
            if checkpoints is not None:
                checkpoints.restore()
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
        passes.append(p)
        measured += p.wall
        if measured + p.wall / 2 >= seconds and (not trace or tracers):
            return passes, tracers


def check_outputs(ops, work, last: Pass) -> tuple:
    """Failure class per operation of the last pass, whose outputs are the
    files left in ``work`` (None when correct), and the number of records
    checked."""
    import checks

    statuses = []
    records = 0
    for i, op in enumerate(ops):
        status = last.status[i]
        if status is None:
            try:
                records += checks.check(op, (work / f"{i}.out").read_text())
            except checks.Mismatch as exc:
                status = f"wrong: {op.kind}: {exc}"
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                status = f"wrong: {op.kind}: unparseable output ({exc})"
        statuses.append(status)
    return statuses, records


def tally(ops, passes, statuses) -> tuple:
    """(attempted, failed, failures by class, consistent) over all passes.

    ``statuses`` are the checked classes of the last pass; another pass
    is correct when its output bytes equal the checked ones.
    """
    attempted = failed = 0
    failures = {}
    consistent = True
    for p in passes:
        for i, op in enumerate(ops):
            attempted += 1
            status = statuses[i]
            if status is None and p.status[i] is not None:
                status = p.status[i]
            elif status is None and p.digest[i] != passes[-1].digest[i]:
                status = "wrong: output differs between passes" + (
                    " (traced)" if p.traced else "")
                consistent = False
            if status is not None:
                failed += 1
                entry = failures.setdefault(status, {"count": 0, "argv": " ".join(op.argv)})
                entry["count"] += 1
    return attempted, failed, failures, consistent


def end_to_end_metrics(workload, passes, setup, items, peak_rss_mb, lines) -> dict:
    wall_s = float(np.median([p.scaled_wall for p in passes]))
    metrics = {
        "setup_s": float(np.median([t for _, t in setup])),
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    alias = {"study": "cells_per_s", "query": "queries_per_s", "bulk": "rows_per_s"}
    lines.append(f"{alias[workload]} {metrics['items_per_s']:.6g} 1/s ({items} per pass)")
    lines.append(f"raw: wall_s {np.median([p.wall for p in passes]):.6g} s,"
                 f" setup_s {np.median([t for t, _ in setup]):.6g} s")
    # latencies of the operations the program completed
    latency = op_times(passes)
    ok = [lat for lat, st in zip(latency, passes[-1].status) if st is None]
    if workload == "query" and ok:
        # printed, not bounded, as only query has operations enough to
        # rank; the last is the highest percentile with at least ten
        # samples beyond it
        top = int(100 * (1 - 10 / len(ok)))
        for q in sorted({50, 90, top}):
            lines.append(f"query_p{q}_ms {1e3 * float(np.percentile(ok, q)):.6g} ms"
                         f" ({len(ok)} samples)")
    lines.append(f"samples: {len(passes)} passes of {len(latency)} operations,"
                 f" {len(setup)} set-up spawns; medians reported")
    return metrics


def per_layer_metrics(passes, tracers, lines) -> tuple:
    """Per-layer metrics, and whether every count repeated across the
    traced passes.  Times are the fastest traced pass's."""
    units = UNITS["per_layer"]
    per_pass = [t.metrics() for t in tracers]
    metrics = {}
    repeat = True
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units[name] in TIME_UNITS:
            metrics[name] = min(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) != 1:
                lines.append(f"count {name} differs between traced passes: {values}")
                repeat = False
    metrics["cli.rows_out"] = sum(passes[0].nrows)
    metrics["cli.bytes_out"] = sum(passes[0].nbytes)
    plain = sum(op_times([p for p in passes if not p.traced]))
    traced = sum(op_times([p for p in passes if p.traced]))
    metrics["trace.overhead"] = traced / plain - 1.0
    return metrics, repeat


def output_digest(p: Pass) -> str:
    return hashlib.sha256("".join(p.digest).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 1

    ops = workloads.ops_for(args.workload, args.seed)
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup = []
    try:
        # the calibration loop, the program and the set-up spawns share a CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        # warm-up: byte-code caches for the set-up spawns, lazy state here
        measure_setup(1)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for warm in WARM_UP:
                cli.execute(list(warm))
        # objects alive now (the interpreter, numpy, scipy, the operation
        # list) are left out of every later garbage collection
        gc.collect()
        gc.freeze()
        passes, tracers = run_passes(cli, ops, work, args.seconds, args.trace == 1,
                                     setup, CHECKPOINTS.get(args.workload, ()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checking = time.perf_counter()
        statuses, records = check_outputs(ops, work, passes[-1])
        check_s = time.perf_counter() - checking
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, failures, consistent = tally(ops, passes, statuses)
    correct = consistent and not any(s and s.startswith("wrong") for s in statuses)

    lines = [f"environment {json.dumps(env, sort_keys=True)}",
             f"operations {len(ops)} per pass, {len(passes)} passes"
             f" ({sum(p.traced for p in passes)} traced)",
             f"program_stdout_sha256 {output_digest(passes[0])}"]
    for status, entry in sorted(failures.items()):
        lines.append(f"failure {entry['count']} x {status} (e.g. {entry['argv']})")
    error_rate = failed / attempted
    lines.append(f"error_rate {error_rate:.6g} (failed {failed} of {attempted})")
    if args.trace:
        metrics, counts_repeat = per_layer_metrics(passes, tracers, lines)
        correct = correct and counts_repeat
        tracers[0].write_spans(OUT / f"spans-{tag}.csv")
        units = UNITS["per_layer"]
    else:
        items = {"study": workloads.STUDY_CELLS, "query": len(ops), "bulk": records}
        metrics = end_to_end_metrics(args.workload, passes, setup, items[args.workload],
                                     peak_rss_mb, lines)
        units = UNITS["end_to_end"]
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "environment": env, "failures": failures,
         "pass_walls_s": [p.wall for p in passes],
         "pass_scaled_walls_s": [p.scaled_wall for p in passes],
         "setup_raw_scaled_s": setup,
         "check_s": check_s,
         "run_s": time.perf_counter() - STARTED,
         "pass_traced": [p.traced for p in passes]}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
