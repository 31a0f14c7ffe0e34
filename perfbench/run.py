"""End-to-end and per-layer benchmark of the jumpstat CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}
    python3 perfbench/run.py --record        # rewrite perfbench/expected.json

Load model: a closed loop with one client.  Each job is a fresh
interpreter running the checkout's own ``src/`` (the solvers' caches start
cold, as for a CLI user), and the next job starts only after the previous
one has exited.  One iteration runs every job of the workload, in an
order shuffled by the seed; iterations repeat until ``--seconds`` have
been measured, and each metric is the median over iterations.

The host is a shared virtual machine.  Its speed changes by up to 1.7x
within a second and drifts by 10-20 % over minutes, more than any run
length can average out, and its hypervisor stalls a process for up to a
third of a job's wall time.  So the time metric is ``cpu_per_ref``: each
job's user+sys time over the mean CPU time of ``reference.chunk``, a fixed
computation that does not use jumpstat, which a thread of this process
times every ``PROBE_INTERVAL_S`` while the job runs, on the same CPU (all
of the benchmark is pinned to one); summed over an iteration's jobs, the
median over iterations.  Paired in time this way, the two see the same
host speed.  The probe takes about a tenth of the CPU from the job, which
lengthens its wall time but not its CPU time.  Wall times are printed on
stderr, raw, and are not a metric: the stalls make them too unsteady to
bound.

Every job's exit code and the sha256 of its stdout and stderr are
compared with ``expected.json``, recorded at the seed commit; a job that
differs counts as failed.  The share of failed jobs is ``failed`` over
``attempted`` in the result line (and ``failed_frac`` on stderr), not a
metric: it is 0 whenever the program is correct.  ``setup_s`` is the median
time for a fresh interpreter to import ``jumpstat.cli``, so that work moved
into import shows; it is sampled before the loop and before every job,
so that the samples span the run.  The host's speed moves it by up to 2x
over tens of minutes, so it is measured like the jobs: its
user+sys time over the probe's mean while it runs, given in seconds by
multiplying with ``REF_CHUNK_S``, the chunk's time at this VM's usual
speed.

``--trace 0`` prints the end-to-end metrics: ``cpu_per_ref``,
``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced iterations; the traced ones run each job under
``tracer.py``, which wraps every layer's public functions from outside,
and give the per-layer metrics, plus ``trace.overhead_s``: the traced
minus the untraced wall time.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import reference
from tracer import SOLVERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 3  # before the loop; one more before each job
PROBE_INTERVAL_S = 0.045  # pause between two timings of reference.chunk
REF_CHUNK_S = 0.006  # reference.chunk's CPU time at this VM's usual speed
DEADLINE_S = 165.0  # a run must end within 180 s, whatever the program does

END_TO_END = {"cpu_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "algebra.mul.calls": "count",
    "algebra.mul.s": "s",
    "algebra.mul.coeff_products": "count",
    "algebra.mul.max_coeff_bits": "bits",
    "algebra.fixed_point.s": "s",
    "algebra.fixed_point.iterations": "count",
    "algebra.sqrt.s": "s",
    "algebra.inverse.s": "s",
    "genfunc.solve_F.self_s": "s",
    "genfunc.solve_H.self_s": "s",
    "genfunc.solve_catalan.self_s": "s",
    "genfunc.solve_Jdepth.self_s": "s",
    "genfunc.solve_K.self_s": "s",
    "genfunc.verify.self_s": "s",
    "genfunc.cache_hits": "count",
    "genfunc.cache_misses": "count",
    "genfunc.cache_hit_ratio": "ratio",
    "moments.moment_table.self_s": "s",
    "moments.q_log_derivative.s": "s",
    "moments.check_closed_forms.s": "s",
    "guess.guess_rational.self_s": "s",
    "guess.fit.calls": "count",
    "guess.fit.s": "s",
    "guess.fit.accepted": "count",
    "guess.holdout_rejections": "count",
    "guess.fit_accept_ratio": "ratio",
    "trees.enumerator.s": "s",
    "trees.trees_enumerated": "count",
    "trees.trees_per_s": "1/s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trees.self_share": "ratio",
    "algebra.self_share": "ratio",
    "genfunc.self_share": "ratio",
    "moments.self_share": "ratio",
    "guess.self_share": "ratio",
    "cli.self_share": "ratio",
}

LAYERS = ("trees", "algebra", "genfunc", "moments", "guess", "cli")


@dataclass(frozen=True)
class Job:
    """One CLI command, or ("session", size) for the paper session."""

    argv: tuple[str, ...]
    exit: int = 0
    stderr_line: str | None = None   # a line stderr must contain

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def is_cli(self) -> bool:
        return self.argv[0] != "session"


def _jumps(n: int) -> tuple[Job, ...]:
    return (Job(("moments", "jumps", "--nmax", str(n), "--max-moment", "10",
                 "--check", "--format", "csv")),
            Job(("verify", "2", "--order", str(n))))


def _jumpdist(n: int) -> tuple[Job, ...]:
    # tag 8.3's sign clause fails on the paper's table: exit 1 is expected
    return (Job(("moments", "jumpdist", "--nmax", str(n), "--max-moment", "10",
                 "--check"), exit=1, stderr_line="check 8.3: FAIL"),
            Job(("verify", "6", "--order", str(n))))


def _guess(n: int, r: int, degree: int) -> tuple[Job, ...]:
    return (Job(("guess", "jumpdist", "--moment", f"central:{r}", "--n-to",
                 str(n), "--max-total-degree", str(degree))),)


@dataclass(frozen=True)
class Workload:
    full: tuple[Job, ...]
    tiny: tuple[Job, ...]        # the smoke self-test's sizes
    layers: tuple[str, ...]      # spans a traced run must record


WORKLOADS = {
    # solve_F, the dense (t,q) kernel under fixed_point_solve, is ~85-90 %
    # of the time; order 60 would cost ~30 s per job
    "cli-jumps": Workload(
        _jumps(40), _jumps(8),
        ("cli.main", "genfunc.solve_F", "genfunc.solve_H", "genfunc.verify",
         "algebra.fixed_point", "algebra.mul", "algebra.sqrt",
         "moments.moment_table", "moments.q_log_derivative",
         "moments.check_closed_forms")),
    # the same algebra layer at order 200 on one-marker big-integer
    # coefficients (catalan fixed point, inverse, sqrt); never solves F
    "cli-jumpdist": Workload(
        _jumpdist(200), _jumpdist(12),
        ("cli.main", "genfunc.solve_catalan", "genfunc.solve_Jdepth",
         "genfunc.solve_K", "genfunc.verify", "algebra.fixed_point",
         "algebra.mul", "algebra.sqrt", "algebra.inverse",
         "moments.moment_table", "moments.q_log_derivative",
         "moments.check_closed_forms")),
    # the degree-pair search of guess_rational is ~95 % of the time
    "cli-guess": Workload(
        _guess(60, 10, 40), _guess(16, 2, 10),
        ("cli.main", "guess.guess_rational", "guess.fit",
         "moments.moment_table", "genfunc.solve_K")),
    # the only workload that reaches trees (the oracle, ~30 %) and finds
    # series in the solvers' caches; sizes in session.py
    "paper-session": Workload(
        (Job(("session", "full")),), (Job(("session", "tiny")),),
        ("trees.enumerator", "genfunc.solve_F", "genfunc.solve_H",
         "genfunc.solve_catalan", "genfunc.solve_Jdepth", "genfunc.solve_K",
         "genfunc.verify", "algebra.fixed_point", "algebra.mul",
         "algebra.sqrt", "algebra.inverse", "moments.moment_table",
         "moments.check_closed_forms", "guess.guess_rational", "guess.fit")),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int
    ref_s: float | None = None  # mean CPU time of reference.chunk meanwhile


class Probe:
    """Times ``reference.chunk`` in a thread, every ``PROBE_INTERVAL_S``,
    from entry to exit of the ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wrong: int | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)

    def _loop(self) -> None:
        while True:
            start = thread_time()
            got = reference.chunk()
            self.samples.append(thread_time() - start)
            if got != reference.EXPECTED:
                self.wrong = got
                return
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self) -> Probe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if self.wrong is not None:
            raise BenchError(f"reference.chunk() returned {self.wrong}, "
                             f"not {reference.EXPECTED}")


def _child_env() -> dict[str, str]:
    # JUMPSTAT_* would change the CLI's defaults; PYTHONPATH selects src/
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs one child process at a time inside a scratch directory."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = _child_env()

    def run(self, cmd: list[str], probe: Probe | None = None) -> Outcome:
        """Run ``cmd``; with ``probe``, time the reference while it runs."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        timeout = max(self.deadline - perf_counter(), 0.1)
        with (open(out_path, "wb") as out, open(err_path, "wb") as err,
              probe or contextlib.nullcontext()):
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_bytes(),
                       err_path.read_bytes(), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                       statistics.fmean(probe.samples) if probe else None)

    def job(self, job: Job, seed: int, trace_out: Path | None,
            probe: bool = False) -> Outcome:
        py = sys.executable
        if not job.is_cli:
            cmd = [py, str(HERE / "session.py"), job.argv[1], str(seed)]
            if trace_out:
                cmd.append(str(trace_out))
        elif trace_out:
            cmd = [py, str(HERE / "tracer.py"), str(trace_out), *job.argv]
        else:
            cmd = [py, "-m", "jumpstat.cli", *job.argv]
        return self.run(cmd, Probe() if probe else None)

    def setup_time(self) -> float:
        """User+sys time of a fresh interpreter importing jumpstat.cli from
        src/, scaled to a host on which reference.chunk takes REF_CHUNK_S."""
        code = "import jumpstat.cli as c; print(c.__file__)"
        outcome = self.run([sys.executable, "-c", code], Probe())
        where = Path(outcome.stdout.decode().strip() or ".").resolve()
        if outcome.exit != 0 or SRC.resolve() not in where.parents:
            raise BenchError(f"jumpstat.cli does not import from {SRC}: "
                             f"{outcome.stderr.decode().strip() or where}")
        return outcome.cpu_s / outcome.ref_s * REF_CHUNK_S


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _matches(job: Job, outcome: Outcome, expected: dict) -> bool:
    want = expected.get(job.key)
    if want is None:
        return False
    line_ok = (job.stderr_line is None
               or job.stderr_line in outcome.stderr.decode(errors="replace"))
    return (line_ok and outcome.exit == want["exit"] == job.exit
            and _sha(outcome.stdout) == want["stdout_sha256"]
            and _sha(outcome.stderr) == want["stderr_sha256"])


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_kb: int
    attempted: int
    failed: int
    cli_bytes: int
    traces: list[dict] = field(default_factory=list)
    cpu_per_ref: float = 0.0                           # --trace 0 only
    setups: list[float] = field(default_factory=list)  # --trace 0 only


def _iteration(runner: Runner, jobs, expected, rng, seed, traced,
               probe) -> Iteration:
    """One pass over ``jobs``; with ``probe``, the end-to-end samples too."""
    order = list(jobs)
    rng.shuffle(order)
    it = Iteration(0.0, 0.0, 0, 0, 0, 0)
    for job in order:
        if probe:
            it.setups.append(runner.setup_time())
        trace_out = runner.scratch / "trace.json" if traced else None
        if trace_out and trace_out.exists():
            trace_out.unlink()
        outcome = runner.job(job, seed, trace_out, probe)
        it.wall_s += outcome.wall_s
        it.cpu_s += outcome.cpu_s
        if probe:
            it.cpu_per_ref += outcome.cpu_s / outcome.ref_s
        it.rss_kb = max(it.rss_kb, outcome.rss_kb)
        it.attempted += 1
        if not _matches(job, outcome, expected):
            it.failed += 1
            print(f"perfbench: job failed: {job.key} (exit {outcome.exit}): "
                  f"{outcome.stderr.decode(errors='replace')[-400:]}",
                  file=sys.stderr)
        if job.is_cli:
            it.cli_bytes += len(outcome.stdout)
        if traced:
            if not trace_out.exists():
                raise BenchError(f"traced job wrote no trace: {job.key}")
            it.traces.append(json.loads(trace_out.read_text()))
        if perf_counter() >= runner.deadline:
            break
    return it


def layer_metrics(traces: list[dict], wall_s: float,
                  cli_bytes: int) -> tuple[dict, set[str]]:
    """Per-layer metrics of one traced iteration (all its jobs summed),
    and the names of the spans that recorded calls."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    hits = misses = 0
    for trace in traces:
        for name, agg in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += agg[field]
        for name, value in trace["counters"].items():
            if name == "algebra.mul.max_coeff_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        hits += trace["cache"]["hits"]
        misses += trace["cache"]["misses"]

    def span(name: str, field: str):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    fit_calls = span("guess.fit", "calls")
    accepted = counters.get("guess.fit.accepted", 0)
    trees = counters.get("trees.trees_enumerated", 0)
    m = {
        "algebra.mul.calls": span("algebra.mul", "calls"),
        "algebra.mul.s": span("algebra.mul", "s"),
        "algebra.mul.coeff_products": counters.get("algebra.mul.coeff_products", 0),
        "algebra.mul.max_coeff_bits": counters.get("algebra.mul.max_coeff_bits", 0),
        "algebra.fixed_point.s": span("algebra.fixed_point", "s"),
        "algebra.fixed_point.iterations":
            counters.get("algebra.fixed_point.iterations", 0),
        "algebra.sqrt.s": span("algebra.sqrt", "s"),
        "algebra.inverse.s": span("algebra.inverse", "s"),
        "genfunc.verify.self_s": span("genfunc.verify", "self_s"),
        "genfunc.cache_hits": hits,
        "genfunc.cache_misses": misses,
        "genfunc.cache_hit_ratio": ratio(hits, hits + misses),
        "moments.moment_table.self_s": span("moments.moment_table", "self_s"),
        "moments.q_log_derivative.s": span("moments.q_log_derivative", "s"),
        "moments.check_closed_forms.s": span("moments.check_closed_forms", "s"),
        "guess.guess_rational.self_s": span("guess.guess_rational", "self_s"),
        "guess.fit.calls": fit_calls,
        "guess.fit.s": span("guess.fit", "s"),
        "guess.fit.accepted": accepted,
        "guess.holdout_rejections":
            accepted - counters.get("guess.guess_rational.accepted", 0),
        "guess.fit_accept_ratio": ratio(accepted, fit_calls),
        "trees.enumerator.s": span("trees.enumerator", "s"),
        "trees.trees_enumerated": trees,
        "trees.trees_per_s": ratio(trees, span("trees.enumerator", "s")),
        "cli.main_s": span("cli.main", "s"),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.output_bytes": cli_bytes,
    }
    for solver in SOLVERS:
        m[f"genfunc.{solver}.self_s"] = span(f"genfunc.{solver}", "self_s")
    for layer in LAYERS:
        own = sum(agg["self_s"] for name, agg in spans.items()
                  if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = ratio(own, wall_s)
    return m, {name for name, agg in spans.items() if agg["calls"]}


def measure(name: str, seed: int, seconds: float, traced: bool,
            tiny: bool) -> dict:
    if not (SRC / "jumpstat" / "cli.py").is_file():
        raise BenchError(f"no jumpstat source tree at {SRC}")
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}; run with --record at the seed")
    expected = json.loads(EXPECTED.read_text())
    workload = WORKLOADS[name]
    jobs = workload.tiny if tiny else workload.full
    rng = random.Random(seed)
    # one CPU for this process, its probe thread and every child, which
    # inherit it: the probe then times the CPU the job runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), start + DEADLINE_S)
        setups = [runner.setup_time() for _ in range(SETUP_SAMPLES)]
        plain: list[Iteration] = []
        traced_its: list[Iteration] = []
        t0 = perf_counter()
        while True:
            plain.append(_iteration(runner, jobs, expected, rng, seed,
                                    False, not traced))
            if traced:
                traced_its.append(
                    _iteration(runner, jobs, expected, rng, seed, True, False))
            now = perf_counter()
            if now - t0 >= seconds or now >= runner.deadline:
                break
    its = plain + traced_its
    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    if traced:
        results = [layer_metrics(it.traces, it.wall_s, it.cli_bytes)
                   for it in traced_its]
        missing = [s for s in workload.layers
                   if any(s not in seen for _, seen in results)]
        if missing:
            raise BenchError(f"{name}: traced run recorded no calls to "
                             f"{', '.join(missing)}")
        values = {k: statistics.median(r[k] for r, _ in results)
                  for k in results[0][0]}
        values["trace.overhead_s"] = (
            statistics.median(it.wall_s for it in traced_its)
            - statistics.median(it.wall_s for it in plain))
        units = PER_LAYER
    else:
        values = {
            "cpu_per_ref": statistics.median(it.cpu_per_ref for it in plain),
            "setup_s": statistics.median(
                setups + [s for it in plain for s in it.setups]),
            "peak_rss_mb": statistics.median(it.rss_kb for it in plain) / 1024,
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for k, metric in metrics.items():
        print(f"{name:14} {k:32} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"{name:14} {'failed_frac':32} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} jobs)", file=sys.stderr)
    for unit in ("wall_s", "cpu_s") + (() if traced else ("cpu_per_ref",)):
        print(f"{name:14} {unit} of the {len(plain)} iterations: "
              + " ".join(f"{getattr(it, unit):.3f}" for it in plain),
              file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record(seed: int) -> None:
    """Run every job once, untraced, and store its expected outcome."""
    expected = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), perf_counter() + 3600)
        for workload in WORKLOADS.values():
            for job in workload.full + workload.tiny:
                outcome = runner.job(job, seed, None)
                stderr = outcome.stderr.decode(errors="replace")
                if outcome.exit != job.exit or (
                        job.stderr_line and job.stderr_line not in stderr):
                    raise BenchError(f"{job.key}: exit {outcome.exit}, "
                                     f"stderr {stderr[-400:]!r}")
                entry = {"exit": outcome.exit,
                         "stdout_sha256": _sha(outcome.stdout),
                         "stderr_sha256": _sha(outcome.stderr)}
                if not job.is_cli:
                    entry["stdout"] = json.loads(outcome.stdout)
                expected[job.key] = entry
                print(f"recorded {job.key} ({outcome.wall_s:.2f} s)",
                      file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (see selftest.py)")
    parser.add_argument("--record", action="store_true",
                        help="record every job's expected outcome")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record(args.seed)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
