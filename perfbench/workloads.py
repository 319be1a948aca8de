"""The benchmark's workloads and the inputs each makes from its seed.

Every workload is a closed loop: one client, one query at a time.  The
seed only shuffles query order, so every seed runs the same multiset of
work.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("sweep", "session", "large")

PHI_T = 2   # the t of the session's counting queries

# The session's CLI commands, by short name.
COMMANDS = {
    "check-mu-lambda": ("check-mu-lambda",),
    "table": ("table", "--aut", "inn"),
    "phi-classes": ("phi", "--t", str(PHI_T), "--via", "classes", "--aut", "inn"),
    "phi-star": ("phi-star", "--t", str(PHI_T)),
    "prob": ("prob", "--t", str(PHI_T)),
    "beta": ("beta", "--rank"),
    "sigma-table": ("sigma-table",),
}

# Commands per session group.  The first one opens the group: it finds the
# cache empty, enumerates and writes it (the cold query); the others read it.
# `table S:6 --aut inn` is the inner-automorphism orbits, `table` on C:2^6
# names 2825 subgroups and sums their down-sets, A:6 is enumerated once;
# the three small groups run every command warm.  Heavier repeats of the
# same layers are left out to keep a run near half a minute.
SESSION = {
    "S:5": tuple(COMMANDS),
    "A:6": ("check-mu-lambda",),
    "S:6": ("table",),
    "C:2xC:2xC:2xC:2xC:2xC:2": ("table",),
    "D:12xC:2": tuple(COMMANDS),
    "Q:8xS:3": tuple(COMMANDS),
}

LARGE_GROUP = "A:7"

# Published subgroup and conjugacy-class counts, checked on every run.
PUBLISHED = {"S:5": (156, 19), "A:6": (501, 22), "S:6": (1455, 56),
             "A:7": (3786, 40)}


@dataclass(frozen=True)
class Query:
    key: str                 # stable name; keys the recorded digest
    group: str               # group spec
    command: str             # short command name ("" for a sweep query)
    cold: bool               # runs against an empty cache (or none at all)

    def argv(self, cache_dir: str | None) -> list[str]:
        """The `moebius` command line of a CLI query."""
        cmd = COMMANDS[self.command]
        out = [cmd[0], self.group, *cmd[1:]]
        if cache_dir is not None:
            out += ["--cache-dir", cache_dir]
        return out


def load_engine():
    """Import the engine from this checkout's src/, and only from there."""
    if not (SRC / "moebius" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import moebius
    if Path(moebius.__file__).resolve().parent != SRC / "moebius":
        raise SystemExit(f"perfbench: imported moebius from {moebius.__file__}, "
                         f"not from {SRC}")
    return moebius


def sweep_specs() -> list[str]:
    """The solvable groups of `catalog.family_specs(100)`.

    A:5 is the only atom that is not solvable, and a product of solvable
    groups is solvable, so dropping the specs with an A:5 factor keeps
    exactly the solvable ones without building every group here.
    """
    from moebius.catalog import family_specs
    return [s for s in family_specs(100) if "A:5" not in s.split("x")]


def queries(workload: str, seed: int) -> list[Query]:
    rng = random.Random(seed)
    if workload == "sweep":
        out = [Query(spec, spec, "", True) for spec in sweep_specs()]
        rng.shuffle(out)
        return out
    if workload == "session":
        out = [Query(f"{cmd} {group}", group, cmd, i == 0)
               for group, cmds in SESSION.items() for i, cmd in enumerate(cmds)]
        rng.shuffle(out)
        # move each group's opening query to that group's first slot
        first = {}
        for pos, q in enumerate(out):
            first.setdefault(q.group, pos)
        for pos, q in enumerate(list(out)):
            if q.cold:
                slot = first[q.group]
                out[pos], out[slot] = out[slot], out[pos]
        return out
    if workload == "large":
        return [Query(f"check-mu-lambda {LARGE_GROUP}", LARGE_GROUP,
                      "check-mu-lambda", True)]
    raise ValueError(f"unknown workload {workload!r}")
