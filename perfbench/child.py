"""One process of a benchmark run.

    python3 child.py cli ARG...          one `moebius` command line
    python3 child.py sweep IN OUT        the library sweep over the specs in IN
    python3 child.py setup WORKLOAD DIR  one timed set-up; prints its seconds

With PERFBENCH_TRACE=<file> in the environment the span wrappers are
installed before anything runs, and the spans are written to <file> when
the process ends.  With PERFBENCH_TIMING=<file> a CLI query writes to
<file> the seconds it spent in `moebius.cli.main` and, when it is not
traced, the speed bursts it ran in there every speed.IN_QUERY_PERIOD_S
seconds from a timer signal, and the seconds they took (not counted in
the first figure).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from checks import digest, sweep_row_text  # noqa: E402


SWEEP_BURSTS_BEFORE = 5   # speed bursts before the sweep's first query
SWEEP_BLOCK = 10          # and one after every SWEEP_BLOCK queries


def run_setup(workload: str, cache_dir: str) -> float:
    """Import the engine, make the workload's inputs and, for the session,
    its empty cache directory; return the seconds it took."""
    workloads.load_engine()
    import moebius.cli  # noqa: F401
    workloads.queries(workload, 0)
    if workload == "session":
        os.makedirs(cache_dir)
    return time.perf_counter() - T0


def run_sweep(specs: list[str], tracer) -> dict:
    """Build, enumerate and report each group; one query per group.  A
    speed burst runs after every SWEEP_BLOCK queries, outside the timing."""
    from moebius import groups, lattice, mulambda

    def query(spec):
        G = groups.build_from_spec(spec)
        lat = lattice.enumerate_subgroups(G)
        return mulambda.MuLambdaAnalyzer(G, lat).report()

    rows, bursts = [], [speed.burst() for _ in range(SWEEP_BURSTS_BEFORE)]
    for k, spec in enumerate(specs):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        q0 = time.perf_counter()
        try:
            report = tracer.call("query", query, spec) if tracer else query(spec)
        except Exception as exc:  # noqa: BLE001 - one failed group is one failed query
            report = exc
        seconds = time.perf_counter() - q0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        row = {"spec": spec, "seconds": seconds,
               "cpu_s": ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime}
        if isinstance(report, Exception):
            row["error"] = f"{type(report).__name__}: {report}"
        else:
            row.update(passed=report.passed,
                       digest=digest(sweep_row_text(report).encode()))
        rows.append(row)
        if k % SWEEP_BLOCK == SWEEP_BLOCK - 1:
            bursts.append(speed.burst())
    return {"rows": rows, "bursts": bursts,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


class InQueryBursts:
    """Speed bursts inside one long query, so that its scaling sees the
    machine's speed while it ran and not only before and after it."""

    def __init__(self):
        self.bursts: list[float] = []
        self.spent = 0.0      # seconds in the handler, taken off the query's time

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.bursts.append(speed.burst())
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        period = speed.IN_QUERY_PERIOD_S
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def run_cli(args: list[str], timing_path: str | None, traced: bool) -> int:
    """One `moebius` command line.  A traced query runs no bursts: they
    would land in its spans."""
    import moebius.cli
    bursts = InQueryBursts()
    if timing_path and not traced:
        bursts.start()
    start = time.perf_counter()
    try:
        return moebius.cli.main(args)
    finally:
        main_s = time.perf_counter() - start - bursts.spent
        bursts.stop()
        if timing_path:
            with open(timing_path, "w", encoding="utf-8") as fh:
                json.dump({"main_s": main_s, "bursts": bursts.bursts,
                           "spent": bursts.spent}, fh)


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        print(repr(run_setup(args[0], args[1])))
        return 0
    workloads.load_engine()
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        import spans
        tracer = spans.Tracer(os.environ.get("PERFBENCH_QUERY", ""))
        spans.install(tracer)
    try:
        if mode == "cli":
            return run_cli(args, os.environ.get("PERFBENCH_TIMING"), tracer is not None)
        if mode == "sweep":
            with open(args[0], encoding="utf-8") as fh:
                specs = json.load(fh)
            result = run_sweep(specs, tracer)
            with open(args[1], "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            return 0
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
