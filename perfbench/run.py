"""Benchmark of the moebius engine: one workload per run.

    python3 perfbench/run.py --workload sweep|session|large --seed N \
        --seconds S --trace 0|1

Set-up (import, inputs, empty cache) is timed in fresh processes before
the timed phase; the timed phase runs the workload's queries one at a
time; the answers are checked afterwards.  --trace 0 prints the
end-to-end metrics.  --trace 1 runs the workload once untraced and once
with spans around every layer's entry points, checks that both gave the
same bytes, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the exit code is 1 when any
answer check failed.

    python3 perfbench/run.py --record [--workload W]

re-records the output digests and exit codes in expected.json from the
engine as it is now.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from child import SWEEP_BLOCK, SWEEP_BURSTS_BEFORE
import speed
import workloads
from workloads import PHI_T, ROOT, Query

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench"

# Not used while the benchmark or any change was tuned: a claimed gain must
# also hold on this seed.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 15
MIN_IN_QUERY_BURSTS = 4      # fewer, and a CLI query is scaled by spawns only
SWEEP_WINDOW = 2             # blocks on each side whose bursts scale a sweep query
QUERY_CPU_BUDGET_S = 150     # per process, enforced by RLIMIT_CPU
START_DEADLINE_S = 150       # no query starts later than this into the run



# -- processes ---------------------------------------------------------------

def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (QUERY_CPU_BUDGET_S, QUERY_CPU_BUDGET_S + 5))


def spawn(args: list[str], out_dir: Path, tag: str, env_extra: dict | None = None) -> dict:
    """Run child.py with args; wait for it and return its exit code,
    stdout, wall seconds and resource usage."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MOEBIUS_CACHE_DIR", "PERFBENCH_TRACE", "PERFBENCH_QUERY")}
    env.update(env_extra or {})
    out_path, err_path = out_dir / f"{tag}.out", out_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdout=out,
                                stderr=err, env=env, cwd=ROOT, preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
            "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}


def time_setup(workload: str, work: Path) -> float:
    """Median of several set-ups, each in a fresh process and scaled by a
    spawn run right before it, in nominal seconds."""
    times = []
    for k in range(SETUP_REPEATS):
        f = speed.spawn_factor([speed.spawn()])
        r = spawn(["setup", workload, str(work / f"setup-cache-{k}")], work, f"setup-{k}")
        if r["rc"] != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{r['stderr'].decode()}")
        times.append(f * float(r["stdout"]))
    return statistics.median(times)


# -- one pass over the workload ------------------------------------------------

def run_pass(workload: str, qs: list[Query], work: Path, traced: bool,
             run_start: float) -> dict:
    """Run every query once, in order.  Returns per-query records
    (seconds, the factor that scales them to nominal seconds, rc, output,
    problems) and the pass totals, with the number of speed bursts.

    A CLI query's time in `moebius.cli.main` is scaled by the bursts it
    ran in there, if it ran at least MIN_IN_QUERY_BURSTS; the rest of its
    time (start-up, imports, exit; all of it in a short query) by the
    spawns just before and just after it.  A sweep query's time is scaled
    by the bursts after its block of SWEEP_BLOCK queries and after the
    SWEEP_WINDOW blocks on each side (at the start, the bursts before the
    first query stand in for the missing blocks)."""
    work.mkdir(parents=True)
    if workload == "sweep":
        return _sweep_pass(qs, work, traced)
    cache_dir = None
    if workload == "session":
        cache_dir = work / "cache"
        cache_dir.mkdir()
    records, dumps, bursts = [], [], 0
    before = speed.spawn()
    for i, q in enumerate(qs):
        if time.perf_counter() - run_start > START_DEADLINE_S:
            records.append({"query": q, "problems": ["run deadline passed"]})
            continue
        timing_path = work / f"timing-{i}.json"
        env = {"PERFBENCH_TIMING": str(timing_path)}
        if traced:
            env.update(PERFBENCH_TRACE=str(work / f"trace-{i}.json"), PERFBENCH_QUERY=q.key)
        r = spawn(["cli", *q.argv(None if cache_dir is None else str(cache_dir))],
                  work, f"q{i}", env)
        after = speed.spawn()
        r["query"] = q
        r["problems"] = []
        if timing_path.exists():
            timing = json.loads(timing_path.read_text())
        else:   # the child died before it got there
            timing = {"main_s": 0.0, "bursts": [], "spent": 0.0}
        r["seconds"] -= timing["spent"]
        r["cpu_s"] -= timing["spent"]
        r["factor"] = query_factor(r["seconds"], timing, [before, after])
        r["spawn_factor"] = speed.spawn_factor([before, after])
        bursts += len(timing["bursts"])
        before = after
        if r["rc"] not in (0, 1):
            tail = r["stderr"].decode(errors="replace").strip().splitlines()[-1:]
            r["problems"].append(f"exit {r['rc']} {tail}")
        records.append(r)
        if traced and (work / f"trace-{i}.json").exists():
            dumps.append(json.loads((work / f"trace-{i}.json").read_text()))
    ran = [r for r in records if "seconds" in r]
    return {"records": records, "dumps": dumps, "bursts": bursts,
            "peak_rss_mb": max((r["maxrss_kb"] for r in ran), default=0) / 1024,
            "cache_dir": cache_dir}


def query_factor(seconds: float, timing: dict, spawns: list[float]) -> float:
    """Nominal over measured seconds for one CLI query (see run_pass)."""
    f_spawn = speed.spawn_factor(spawns)
    if len(timing["bursts"]) < MIN_IN_QUERY_BURSTS:
        return f_spawn
    main_s = min(timing["main_s"], seconds)
    nominal = (seconds - main_s) * f_spawn + main_s * speed.factor(timing["bursts"])
    return nominal / seconds


def _sweep_pass(qs: list[Query], work: Path, traced: bool) -> dict:
    specs_path, result_path = work / "specs.json", work / "sweep.json"
    specs_path.write_text(json.dumps([q.key for q in qs]))
    env = {"PERFBENCH_TRACE": str(work / "trace.json"), "PERFBENCH_QUERY": "sweep"} \
        if traced else {}
    r = spawn(["sweep", str(specs_path), str(result_path)], work, "sweep", env)
    if r["rc"] != 0 or not result_path.exists():
        err = r["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return {"records": [{"query": q, "problems": [f"sweep exit {r['rc']} {err}"]}
                            for q in qs],
                "dumps": [], "bursts": 0, "peak_rss_mb": 0, "cache_dir": None}
    result = json.loads(result_path.read_text())
    b = result["bursts"]
    records = []
    for i, (q, row) in enumerate(zip(qs, result["rows"])):
        after_block = SWEEP_BURSTS_BEFORE + i // SWEEP_BLOCK
        f = speed.factor(b[max(0, after_block - SWEEP_WINDOW):after_block + SWEEP_WINDOW + 1])
        records.append(dict(row, query=q, factor=f, problems=[]))
    dumps = [json.loads((work / "trace.json").read_text())] if traced else []
    return {"records": records, "dumps": dumps, "bursts": len(result["bursts"]),
            "peak_rss_mb": result["maxrss_kb"] / 1024, "cache_dir": None}


# -- answer checks ---------------------------------------------------------------

def hall_values(cache_dir: Path, groups: set[str]) -> dict[str, int]:
    """phi(G, PHI_T) by the Hall sum, from the lattices the session cached."""
    from moebius import counting
    from moebius.cache import load_lattice
    from moebius.groups import build_from_spec
    from moebius.lattice import enumerate_subgroups
    out = {}
    for spec in sorted(groups):
        G = build_from_spec(spec)
        lat = load_lattice(G, cache_dir) or enumerate_subgroups(G)
        out[spec] = counting.phi_hall(lat, PHI_T)
    return out


def check_pass(workload: str, result: dict, expected: dict):
    """Add every answer problem to its query's record."""
    records = [r for r in result["records"] if "seconds" in r]
    if workload == "sweep":
        for r in records:
            r["problems"] += checks.check_sweep(r["query"], r, expected)
        return
    for r in records:
        r["problems"] += checks.check_cli(r["query"], r["rc"], r["stdout"], expected)
    phi = [r for r in records if r["query"].command == "phi-classes" and r["rc"] == 0]
    if phi:
        hall = hall_values(result["cache_dir"], {r["query"].group for r in phi})
        for r in phi:
            r["problems"] += checks.check_phi_classes(r["stdout"], hall[r["query"].group])


def answer_of(record: dict) -> str | None:
    if "digest" in record:
        return record["digest"]
    if "stdout" in record:
        return f"{record['rc']}:{checks.digest(record['stdout'])}"
    return None


# -- metrics -----------------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float, int] | None:
    """(percentile, value, samples above it) for the highest whole
    percentile that leaves at least ten samples above it."""
    n = len(values)
    if n < 100:
        return None
    p = (100 * (n - 10)) // n
    ordered = sorted(values)
    k = min(n - 1, (p * n) // 100)
    return p, ordered[k], n - k - 1


def wall(result: dict) -> float:
    """The pass's timed seconds: the sum of its query times, measured."""
    return sum(r["seconds"] for r in result["records"])


def nominal(record: dict) -> float:
    """A query's time in nominal seconds."""
    return record["factor"] * record["seconds"]


def nominal_wall(result: dict) -> float:
    return sum(nominal(r) for r in result["records"])


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; every time is in nominal seconds."""
    records = result["records"]
    cold = [nominal(r) for r in records if r["query"].cold]
    return {"wall_s": nominal_wall(result),
            "cpu_s": sum(r["factor"] * r["cpu_s"] for r in records),
            "queries_per_s": len(records) / nominal_wall(result),
            "query_p50_s": statistics.median(nominal(r) for r in records),
            "cold_query_p50_s": statistics.median(cold),
            "peak_rss_mb": result["peak_rss_mb"], "setup_s": setup_s}


def report_extras(workload: str, result: dict):
    """The end-to-end figures that exist on one workload only, and the
    measured seconds before scaling."""
    records = result["records"]
    warm = [nominal(r) for r in records if not r["query"].cold]
    if warm:
        print(f"warm_query_p50_s = {statistics.median(warm):.4f} s "
              f"({len(warm)} warm queries)")
    t = tail([nominal(r) for r in records])
    if t:
        p, value, beyond = t
        print(f"query_tail_s = {value:.4f} s "
              f"(p{p}, {beyond} samples beyond, n={len(records)})")
    print(f"measured wall_s = {wall(result):.4f} s; speed factor = "
          f"{nominal_wall(result) / wall(result):.4f} "
          f"({result['bursts']} bursts)")


# -- machine record --------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """sha256 over the engine's source files, for checkouts without .git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "loadavg_start": os.getloadavg()}


def remove_work(work: Path):
    """Delete a run's scratch directory, and .perfbench once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run is still using it


# -- main ---------------------------------------------------------------------------

def record_expected(names: list[str]):
    """Run each workload once, check what can be checked without recorded
    answers, and store its digests and exit codes."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in names:
        work = WORK / f"record-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = run_pass(workload, workloads.queries(workload, 0), work, False,
                              time.perf_counter())
            entries = {}
            for r in result["records"]:
                if "digest" in r:
                    entries[r["query"].key] = {"digest": r["digest"]}
                elif "stdout" in r:
                    entries[r["query"].key] = {"digest": checks.digest(r["stdout"]),
                                               "exit": r["rc"]}
            check_pass(workload, result, entries)
            bad = [f"{r['query'].key}: {p}" for r in result["records"]
                   for p in r["problems"]]
            if bad or len(entries) != len(result["records"]):
                raise SystemExit(f"perfbench: not recording {workload}:\n" + "\n".join(bad))
            expected[workload] = entries
        finally:
            remove_work(work)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30,
                    help="the run length the workloads are sized to; a run "
                         "that takes over twice as long counts as failed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    workloads.load_engine()
    if args.record:
        record_expected([args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if not EXPECTED.is_file():
        raise SystemExit(f"perfbench: missing {EXPECTED}")
    expected = json.loads(EXPECTED.read_text())[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    machine = machine_record()
    run_start = time.perf_counter()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        qs = workloads.queries(args.workload, args.seed)
        setup_s = None if args.trace else time_setup(args.workload, work)
        passes = {}
        order = [False, True] if args.trace else [False]
        if args.trace and args.seed % 2:
            order.reverse()
        for traced in order:
            name = "traced" if traced else "untraced"
            passes[name] = run_pass(args.workload, qs, work / name, traced, run_start)
            check_pass(args.workload, passes[name], expected)
    finally:
        remove_work(work)

    if args.trace:
        untraced = {r["query"].key: answer_of(r) for r in passes["untraced"]["records"]}
        for r in passes["traced"]["records"]:
            if answer_of(r) != untraced.get(r["query"].key):
                r["problems"].append("traced output differs from the untraced one")
    elapsed = time.perf_counter() - run_start
    records = [r for p in passes.values() for r in p["records"]]
    if elapsed > len(passes) * 2 * args.seconds + 60:
        records[-1]["problems"].append(f"run took {elapsed:.0f} s")
    failed = [r for r in records if r["problems"]]

    machine["loadavg_end"] = os.getloadavg()
    print("machine: " + json.dumps(machine))
    if max(machine["loadavg_start"][0], machine["loadavg_end"][0]) > (os.cpu_count() or 1):
        print("warning: load average above nproc; timings are suspect", file=sys.stderr)
    for r in failed:
        print(f"FAILED {r['query'].key}: {'; '.join(r['problems'])}", file=sys.stderr)
    print(f"workload = {args.workload}, seed = {args.seed}, queries = {len(qs)}, "
          f"held-out seed = {HELD_OUT_SEED}")
    print(f"failed_frac = {len(failed) / len(records):.4f} ({len(failed)}/{len(records)})")

    base = passes["untraced"]
    if any("seconds" not in r for p in passes.values() for r in p["records"]):
        print("perfbench: not every query ran; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        traced = passes["traced"]
        # A traced CLI query runs no bursts, so both passes are scaled by
        # spawns alone here, to compare like with like.
        walls = {k: sum(r["seconds"] * r.get("spawn_factor", r["factor"])
                        for r in p["records"]) for k, p in passes.items()}
        metrics = spans.layer_metrics(traced["dumps"])
        metrics["trace.wall_s"] = walls["traced"]
        metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    else:
        metrics = end_to_end(base, setup_s)
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        report_extras(args.workload, base)
    print(json.dumps({
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
