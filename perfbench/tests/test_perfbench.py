"""Tests of the benchmark itself: inputs, answer checks and spans.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from collections import Counter

import checks
import run
import spans
import speed
import workloads
from workloads import Query

workloads.load_engine()

CHILD = workloads.ROOT / "perfbench" / "child.py"


def test_queries_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.queries(w, 5) == workloads.queries(w, 5)


def test_seed_shuffles_order_only():
    for w in ("sweep", "session"):
        a, b = workloads.queries(w, 1), workloads.queries(w, 2)
        assert a != b
        assert Counter(a) == Counter(b)


def test_session_opens_each_group_with_its_cold_query():
    for seed in range(20):
        seen = set()
        for q in workloads.queries("session", seed):
            assert q.cold == (q.group not in seen)
            seen.add(q.group)


def test_sweep_specs_are_the_solvable_family():
    from moebius.catalog import family_specs
    from moebius.groups import build_from_spec, is_solvable
    solvable = [s for s in family_specs(100) if is_solvable(build_from_spec(s))]
    assert workloads.sweep_specs() == solvable
    assert len(solvable) == 590


TABLE_S3 = b"""| class | order | mu | lambda | mu_star | |N_G(H)| | ok |
|---|---|---|---|---|---|---|
| G | 6 | 1 | 1 | 1 | 6 | yes |
| <(1,2,3)> | 3 | -1 | -1 | -1 | 6 | yes |
| <(1,2)> | 2 | -1 | -1 | -1 | 2 | yes |
| 1 | 1 | 3 | 1 | 3 | 6 | yes |
verdict: pass
"""


def test_class_counts_read_off_the_table():
    assert checks.class_counts("check-mu-lambda", TABLE_S3) == (6, 4)


def test_checker_rejects_a_corrupted_answer():
    q = Query("check-mu-lambda S:3", "S:3", "check-mu-lambda", True)
    expected = {q.key: {"digest": checks.digest(TABLE_S3), "exit": 0}}
    assert checks.check_cli(q, 0, TABLE_S3, expected) == []
    corrupted = TABLE_S3.replace(b"| 2 | yes", b"| 3 | yes")
    assert checks.check_cli(q, 0, corrupted, expected)
    assert checks.check_cli(q, 1, TABLE_S3, expected)


def test_checker_rejects_wrong_published_counts():
    q = Query("check-mu-lambda A:6", "A:6", "check-mu-lambda", True)
    expected = {q.key: {"digest": checks.digest(TABLE_S3), "exit": 0}}
    assert any("published" in p for p in checks.check_cli(q, 0, TABLE_S3, expected))


def test_checker_rejects_a_failed_sweep_verdict():
    q = Query("C:4", "C:4", "", True)
    expected = {"C:4": {"digest": "abc"}}
    assert checks.check_sweep(q, {"passed": True, "digest": "abc"}, expected) == []
    assert checks.check_sweep(q, {"passed": False, "digest": "abc"}, expected)
    assert checks.check_sweep(q, {"passed": True, "digest": "abd"}, expected)


def test_phi_classes_must_equal_hall():
    out = json.dumps({"value": "342"}).encode()
    assert checks.check_phi_classes(out, 342) == []
    assert checks.check_phi_classes(out, 343)


def test_expected_answers_cover_every_query():
    expected = json.loads((workloads.ROOT / "perfbench" / "expected.json").read_text())
    for w in workloads.WORKLOADS:
        assert {q.key for q in workloads.queries(w, 0)} == set(expected[w])


def test_self_times_subtract_children():
    s = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 50, 60, 0], ["b", 52, 55, 2]]
    st = spans.self_times(s)
    assert st == {"a": 60e-9, "b": 33e-9, "c": 7e-9}


def _child(args, tmp_path, trace=None):
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_TRACE"}
    if trace:
        env["PERFBENCH_TRACE"] = str(trace)
    return subprocess.run([sys.executable, str(CHILD), "cli", *args], env=env,
                          capture_output=True, timeout=120, check=True).stdout


def test_traced_cli_nests_spans_and_matches_untraced(tmp_path):
    args = ["table", "S:4", "--aut", "inn", "--cache-dir", str(tmp_path / "c")]
    trace = tmp_path / "t.json"
    cold_traced = _child(args, tmp_path, trace)
    cold_dump = json.loads(trace.read_text())
    warm_traced = _child(args, tmp_path, trace)
    warm_dump = json.loads(trace.read_text())
    (tmp_path / "c").rename(tmp_path / "old")
    assert _child(args, tmp_path) == cold_traced
    assert _child(args, tmp_path) == warm_traced == cold_traced

    for dump in (cold_dump, warm_dump):
        recs = dump["spans"]
        assert recs[0][0] == "cli" and recs[0][3] == -1
        for name, start, end, parent in recs[1:]:
            assert 0 <= parent
            assert recs[parent][1] <= start <= end <= recs[parent][2]
        assert all(v >= 0 for v in spans.self_times(recs).values())
    cold = spans.layer_metrics([cold_dump])
    warm = spans.layer_metrics([warm_dump])
    assert cold["cache.misses"] == 1 and cold["lattice.subgroups"] == 30
    assert warm["cache.hits"] == 1 and warm["lattice.enumerate_s"] == 0
    assert cold["automorphisms.maps"] == 24 and cold["classposet.classes"] == 11
    assert cold["groups.table_bytes"] == 4 * 24 * 24


def test_short_cli_query_is_scaled_by_spawns_only():
    timing = {"main_s": 0.1, "bursts": [0.01] * 3, "spent": 0.03}
    spawns = [speed.SPAWN_NOMINAL_S / 2] * 2
    assert run.query_factor(0.2, timing, spawns) == 2.0


def test_long_cli_query_scales_main_by_its_bursts():
    timing = {"main_s": 9.0, "bursts": [speed.NOMINAL_S / 3] * 40, "spent": 0.8}
    spawns = [speed.SPAWN_NOMINAL_S] * 2
    assert abs(run.query_factor(10.0, timing, spawns) - (1.0 + 27.0) / 10.0) < 1e-9


def test_in_query_bursts_leave_the_output_alone(tmp_path):
    args = ["check-mu-lambda", "S:4xS:3", "--cache-dir"]   # about a second
    plain = _child([*args, str(tmp_path / "c1")], tmp_path)
    timing_path = tmp_path / "timing.json"
    env = dict(os.environ, PERFBENCH_TIMING=str(timing_path))
    timed = subprocess.run([sys.executable, str(CHILD), "cli", *args, str(tmp_path / "c2")],
                           env=env, capture_output=True, timeout=120, check=True).stdout
    assert timed == plain
    timing = json.loads(timing_path.read_text())
    assert timing["main_s"] > 0 and len(timing["bursts"]) >= 1
    assert timing["spent"] >= sum(timing["bursts"])
