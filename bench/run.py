"""critkernels benchmark: run one workload with one seed, print its metrics.

    python3 bench/run.py --workload kernel-eval --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): cli-readme, kernel-eval,
quadrature.  Each is a closed loop with one client: repeats run one after
another, each in a fresh Python process, so no cached solver survives
from one repeat to the next.  Repeats continue while another one fits in
--seconds (at least one runs).

Times are in nominal seconds: the run pins itself and its children to
one CPU and rescales each wall time by the speed that CPU had meanwhile,
measured by a fixed probe that runs none of the library's code (see
speed.py).  The raw medians are printed as well.

--trace 0 reports the end-to-end metrics:
  wall_s       median time of a repeat's timed phase (all operations
               computed and checked; for cli-readme the nine commands)
  setup_s      median time before the first timed operation: imports,
               Hastings-McLeod collocation and solver construction through
               the cached getters, or a `critkernels --help` process for
               cli-readme; set up several times per run
  peak_rss_mb  largest resident set of any child process
  pass_ratio   operations that passed their output check over those
               attempted (1 - failed_ratio)
--trace 1 alternates untraced and traced repeats and reports the
per-module metrics of tracing.py (span times in raw seconds) plus
trace.overhead, the traced wall_s over the untraced one, minus 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1 when any
operation fails its check, 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0      # every run ends well inside three minutes
# set-ups timed per untraced run (for a library workload, the first
# repeat's counts as one); the short ones are repeated more, as a
# fraction of a second of imports spreads more from run to run
SETUPS = {"cli-readme": 9, "kernel-eval": 2, "quadrature": 9}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_ratio": "ratio"}
# the children run on the one CPU the run is pinned to
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Run:
    """State of one benchmark run: its clock, children and failures.

    A timing sample is a list of (start, end, wall) intervals, one per
    process it spans; `nominal` turns it into nominal seconds.
    """

    def __init__(self, args, meter: speed.Meter):
        self.args = args
        self.meter = meter
        self.start = time.perf_counter()
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.env = dict(os.environ, **THREADS, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[list[tuple]] = []
        self.wall: list[list[tuple]] = []
        self.traced_wall: list[list[tuple]] = []
        self.traces: list[list[dict]] = []   # per traced repeat, per process
        self.cli_walls: list[dict] = []      # per traced cli pass
        self.peak_rss_mb = 0.0

    def record(self, name: str, bad: str | None) -> None:
        self.attempted += 1
        if bad:
            self.failures.append(f"{name}: {bad}")

    def nominal(self, sample: list[tuple]) -> float:
        return sum(self.meter.nominal(a, b, wall) for a, b, wall in sample)

    def child(self, argv: list[str], cwd: Path) -> tuple[int | None, tuple, str]:
        """Run one process to completion; None status if it ran out of time.
        Returns the status, the (start, end, wall) interval and the output."""
        left = DEADLINE_S - (time.perf_counter() - self.start)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=self.env, timeout=max(left, 1.0),
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            code, output = proc.returncode, proc.stdout[-2000:]
        except subprocess.TimeoutExpired:
            code, output = None, "timed out"
        t1 = time.perf_counter()
        return code, (t0, t1, t1 - t0), output

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def another(self, timed_start: float, durations: list[float]) -> bool:
        """Whether one more repeat of median length fits in --seconds."""
        now = time.perf_counter()
        typical = statistics.median(durations)
        return (now - timed_start + typical <= self.args.seconds
                and now - self.start + 1.5 * typical <= DEADLINE_S)

    # -- cli-readme ------------------------------------------------------

    def cli_call(self, line: str, trace: bool) -> tuple[tuple, dict | None]:
        cwd = self.fresh_dir()
        if trace:
            argv = [sys.executable, str(BENCH / "worker.py"), "--cli", "--trace",
                    "--out", str(cwd / "trace.json"), "--", *line.split()]
        else:
            argv = [sys.executable, "-m", "critkernels.cli", *line.split()]
        code, interval, output = self.child(argv, cwd)
        self.record(line, _cli_verdict(code, cwd, line, output))
        summary = None
        if trace and (cwd / "trace.json").is_file():
            summary = json.loads((cwd / "trace.json").read_text())
        return interval, summary

    def cli_pass(self, trace: bool) -> float:
        t0 = time.perf_counter()
        intervals, walls, summaries = [], {}, []
        for line in workloads.CLI_README:
            interval, summary = self.cli_call(line, trace)
            intervals.append(interval)
            walls[line.split()[0]] = interval[2]
            if summary:
                summaries.append(summary)
        if trace:
            self.traced_wall.append(intervals)
            self.cli_walls.append(walls)
            self.traces.append(summaries)
        else:
            self.wall.append(intervals)
        return time.perf_counter() - t0

    def cli_readme(self) -> None:
        for _ in range(SETUPS["cli-readme"]):
            code, interval, output = self.child(
                [sys.executable, "-m", "critkernels.cli", "--help"], self.work)
            self.record("--help", None if code == 0 else f"exit {code}: {output}")
            self.setup.append([interval])
        self.closed_loop(self.cli_pass)

    # -- library workloads -------------------------------------------------

    def worker(self, *flags: str) -> dict | None:
        out = self.fresh_dir() / "result.json"
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload",
                self.args.workload, "--seed", str(self.args.seed),
                "--out", str(out), *flags]
        code, _, output = self.child(argv, out.parent)
        if code != 0 or not out.is_file():
            self.record(f"{self.args.workload} process {' '.join(flags)}",
                        f"exit {code}: {output}")
            return None
        return json.loads(out.read_text())

    def repeat(self, trace: bool) -> float:
        t0 = time.perf_counter()
        result = self.worker(*(["--trace"] if trace else []))
        if result is not None:
            for name, bad in result["ops"]:
                self.record(name, bad)
            if trace:
                self.traced_wall.append([result["timed"]])
                self.traces.append([result])
            else:
                self.setup.append([result["setup"]])
                self.wall.append([result["timed"]])
        return time.perf_counter() - t0

    def library(self) -> None:
        if not self.args.trace:
            for _ in range(SETUPS[self.args.workload] - 1):
                result = self.worker("--setup-only")
                if result is not None:
                    self.record("set-up", None)
                    self.setup.append([result["setup"]])
        self.closed_loop(self.repeat)

    def closed_loop(self, repeat) -> None:
        """Repeat (untraced, then traced when tracing) while another fits."""
        timed_start, durations = time.perf_counter(), []
        while True:
            durations.append(repeat(trace=False))
            if self.args.trace:
                durations[-1] += repeat(trace=True)
            if self.failures or not self.another(timed_start, durations):
                return

    # -- report ------------------------------------------------------------

    def median(self, samples: list[list[tuple]], nominal: bool = True) -> float:
        return statistics.median(
            self.nominal(s) if nominal else sum(w for *_, w in s)
            for s in samples)

    def metrics(self) -> dict[str, tuple[float, int]]:
        """name -> (value, sample count)."""
        if self.args.trace:
            walls = self.cli_walls or [{}] * len(self.traces)
            per_repeat = [tracing.layer_values(t, w)
                          for t, w in zip(self.traces, walls)]
            out = {name: (statistics.median(m[name] for m in per_repeat),
                          len(per_repeat)) for name in per_repeat[0]}
            out["trace.overhead"] = (self.median(self.traced_wall)
                                     / self.median(self.wall) - 1.0,
                                     len(self.traced_wall))
            return out
        return {"wall_s": (self.median(self.wall), len(self.wall)),
                "setup_s": (self.median(self.setup), len(self.setup)),
                "peak_rss_mb": (self.peak_rss_mb, 1),
                "pass_ratio": (1.0 - len(self.failures) / self.attempted,
                               self.attempted)}


def _cli_verdict(code, cwd: Path, line: str, output: str) -> str | None:
    """None if the command exited 0 and its report lists only passing checks."""
    if code != 0:
        return f"exit {code}: {output}"
    report = cwd / f"{line.split()[0]}.csv.report.json"
    if not report.is_file():
        return f"no report {report.name}"
    checks = json.loads(report.read_text())["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    if not checks or failed:
        return f"checks failed: {failed or 'none reported'}"
    return None


def environment(args, nproc: int, cpu: int, meter: speed.Meter) -> dict:
    """Versions, arithmetic backend, cores, BLAS threads, the CPU the run
    was pinned to and its speed, commit and seed."""
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    try:
        top_head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        top_head = []
    if len(top_head) == 2 and Path(top_head[0]).resolve() == ROOT:
        commit = top_head[1]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": nproc,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": THREADS,
        "pinned_cpu": cpu,
        "speed": {"probes": len(meter.times),
                  "probe_s_quartiles": [round(q, 6) for q in statistics.quantiles(
                      meter.times, n=4)] if len(meter.times) > 1 else meter.times,
                  "nominal_probe_s": speed.NOMINAL_PROBE_S},
        "commit": commit,
        "workload": args.workload,
        "seed": (args.seed if args.workload != "cli-readme"
                 else f"{args.seed} (unused: the README commands are fixed)"),
        "trace": args.trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "critkernels" / "cli.py").is_file():
        print(f"error: no critkernels source under {SRC}", file=sys.stderr)
        return 2
    # byte-compile first, so the first run does not time the compiler
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(BENCH)], check=True, stdout=subprocess.DEVNULL)
    WORK.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin()
    meter = speed.Meter(dict(os.environ, **THREADS))
    try:
        run = Run(args, meter)
        try:
            if args.workload == "cli-readme":
                run.cli_readme()
            else:
                run.library()
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
        # the largest resident set of the benchmarked children, read before
        # the meter process is reaped so that it does not count
        run.peak_rss_mb = (resource.getrusage(resource.RUSAGE_CHILDREN)
                           .ru_maxrss / 1024.0)
        time.sleep(speed.MIN_PROBES * speed.PERIOD_S)  # probes after the last
    finally:
        meter.stop()
    print("environment:", json.dumps(environment(args, nproc, cpu, meter)))
    for failure in run.failures:
        print("FAIL", failure)
    units = ({n: u for n, u, _ in tracing.catalogue()} if args.trace
             else END_TO_END)
    measured = run.wall and (run.traces or not args.trace)
    metrics = run.metrics() if measured else {}
    for name, (value, n) in metrics.items():
        print(f"{name:55s} {value:14.6g} {units[name]:6s} n={n}")
    if measured and not args.trace:
        for name, samples in (("wall_s", run.wall), ("setup_s", run.setup)):
            print(f"{'raw ' + name:55s} {run.median(samples, nominal=False):14.6g}"
                  f" {'s':6s} n={len(samples)}")
    print(f"{'failed_ratio':55s} {len(run.failures) / max(run.attempted, 1):14.6g}"
          f" {'ratio':6s} n={run.attempted}")
    correct = bool(measured) and not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
