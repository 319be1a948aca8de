"""Answer checks.  Each returns a list of problems; empty means correct.

They run after the timed phase, on the outputs it kept.
"""

from __future__ import annotations

import hashlib
import json

from workloads import PUBLISHED, Query


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_row_text(report) -> str:
    """Canonical text of a (mu, lambda) report; its digest is recorded."""
    lines = [f"passed={report.passed} violations={list(report.violations)}"]
    lines += [f"{r.rep_id} {r.order} {r.mu} {r.lam} {r.index_factor} "
              f"{r.mu_star} {r.normalizer_order}" for r in report.rows]
    return "\n".join(lines)


def class_counts(command: str, stdout: bytes) -> tuple[int, int]:
    """(subgroups, conjugacy classes) read off a markdown table.

    Each row is one class.  `check-mu-lambda` gives |N_G(H)| per class, so
    the class has |G| / |N_G(H)| members, |G| being the order of the row G;
    `table --aut inn` gives that class size directly as kappa.
    """
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in stdout.decode().splitlines()
            if line.startswith("| ") and not line.startswith("| class ")]
    if command == "table":
        return sum(int(r[3]) for r in rows), len(rows)
    order = next(int(r[1]) for r in rows if r[0] == "G")
    return sum(order // int(r[5]) for r in rows), len(rows)


def check_cli(query: Query, rc: int, stdout: bytes, expected: dict) -> list[str]:
    """Exit code and output digest against the recorded ones, plus the
    published counts where the query reports them."""
    problems = []
    want = expected.get(query.key)
    if want is None:
        problems.append("no recorded answer")
    else:
        if rc != want["exit"]:
            problems.append(f"exit {rc}, recorded {want['exit']}")
        if digest(stdout) != want["digest"]:
            problems.append("output differs from the recorded one")
    if query.command in ("check-mu-lambda", "table") and query.group in PUBLISHED \
            and rc == 0:
        try:
            got = class_counts(query.command, stdout)
        except (ValueError, IndexError, StopIteration):
            got = None
        if got != PUBLISHED[query.group]:
            problems.append(f"subgroups/classes {got}, published "
                            f"{PUBLISHED[query.group]}")
    return problems


def check_sweep(query: Query, row: dict, expected: dict) -> list[str]:
    """A sweep group must pass the (mu, lambda) verdict with the recorded rows."""
    if row.get("error"):
        return [row["error"]]
    problems = []
    if not row["passed"]:
        problems.append("(mu, lambda) verdict FAIL")
    if row["digest"] != expected.get(query.key, {}).get("digest"):
        problems.append("report differs from the recorded one")
    return problems


def check_phi_classes(stdout: bytes, hall: int) -> list[str]:
    """phi --via classes must equal the Hall sum computed independently."""
    try:
        value = int(json.loads(stdout)["value"])
    except (ValueError, KeyError):
        return ["phi output is not the expected JSON"]
    return [] if value == hall else [f"phi via classes {value} != via hall {hall}"]
