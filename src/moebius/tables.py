"""Table assembly and rendering (markdown / csv / json).

Classes are listed by representative order descending, ties by bitset.
Numeric cells are decimal strings so arbitrary-precision values survive
every format.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from itertools import chain

from . import counting
from .classposet import ClassPoset, kappa
from .groups import FiniteGroup, Subgroup, commutator_closure
from .lattice import SubgroupLattice


# the largest order of a subgroup whose generator word is searched for
WORD_ORDER_LIMIT = 72


def name_subgroup(lattice: SubgroupLattice, i: int) -> str:
    """Canonical generator word: shortest, then lexicographic by index.

    A word has at most three generators and is looked for only when
    |H| <= WORD_ORDER_LIMIT (any cyclic H gets its one-generator word); any
    other subgroup is named `order=N#k`, its selector.  x generates H
    exactly when its order is |H|.  Longer words come from the engine's
    one search, `counting.first_generating_tuple`, which for the least
    length that generates H finds the lexicographically first k-subset;
    lengths below the lower bound of `_min_generators` are not tried.
    """
    if i == lattice.trivial_id:
        return "1"
    if i == lattice.top_id:
        return "G"
    G = lattice.group
    s = lattice.subgroups[i]
    orders = G.element_orders
    gens = next(((x,) for x in s.elements() if orders[x] == s.order), None)
    if gens is None and s.order <= WORD_ORDER_LIMIT:
        least = _min_generators(G, s, lattice.subgroups[i].gens)
        for k in range(max(2, least), 4):
            gens = counting.first_generating_tuple(G, s.mask, k)
            if gens is not None:
                break
    if gens is not None:
        return "<" + ",".join(G.cycle_string(x) for x in gens) + ">"
    # ids of one order are contiguous, as subgroups are sorted by order
    k = i - lattice.by_order[s.order][0]
    return f"order={s.order}#{k}"


def _min_generators(G: FiniteGroup, s: Subgroup, witness) -> int:
    """A lower bound on the number of generators of H: the largest r
    with p^r = [H : H'H^p] over the primes p dividing |H|, since H'H^p
    is the smallest normal subgroup of H with elementary abelian
    quotient.  H'H^p is the normal closure in H of the p-th powers and
    the commutators of H's witness generators."""
    primes = [p for p in range(2, s.order + 1)
              if s.order % p == 0 and all(p % q for q in range(2, p))]
    # x^0 .. x^(k-1) for each witness generator x of order k
    cycles = [[G.identity] + G.powers(x) for x in witness]
    best = 0
    for p in primes:
        powers = [c[p % len(c)] for c in cycles]
        closure = commutator_closure(G, witness, witness, witness, powers)[0]
        index = s.order // closure.bit_count()
        r = 0
        while index > 1:
            index //= p
            r += 1
        best = max(best, r)
    return best


def display_key(sub: Subgroup) -> tuple[int, int]:
    """The sort key of the order every table lists classes in, at their
    representatives: order descending, then bitset."""
    return -sub.order, sub.mask


def class_table(poset: ClassPoset,
                include_omega2: bool = False) -> tuple[list[str], Iterator[list[str]]]:
    """The mu_A / omega / kappa / sigma table over all classes; each row is
    named and counted as it is read."""
    cols = ["class", "mu_A", "omega1"]
    if include_omega2:
        cols.append("omega2")
    cols += ["kappa", "sigma"]

    def rows():
        lat = poset.lattice
        for c in sorted(range(len(poset.classes)), key=lambda c: display_key(poset.rep(c))):
            rep_id = poset.classes[c][0]
            row = [name_subgroup(lat, rep_id),
                   str(poset.mu_top[c]),
                   str(counting.omega(poset, c, 1))]
            if include_omega2:
                row.append(str(counting.omega(poset, c, 2)))
            row.append(str(kappa(lat, lat.subgroups[rep_id])))
            row.append(str(lat.sigma(rep_id)))
            yield row

    return cols, rows()


def lattice_mu_table(lattice: SubgroupLattice) -> tuple[list[str], Iterator[list[str]]]:
    """Per-conjugacy-class mu / kappa / sigma table (plain lattice Moebius);
    each row is named and counted as it is read."""
    entries = lattice.class_representatives()
    entries.sort(key=lambda i: display_key(lattice.subgroups[i]))
    cols = ["class", "mu", "kappa", "sigma"]
    rows = ([name_subgroup(lattice, i),
             str(lattice.mu_top[i]),
             str(kappa(lattice, lattice.subgroups[i])),
             str(lattice.sigma(i))] for i in entries)
    return cols, rows


def render(cols: list[str], rows: Iterable[list[str]], fmt: str) -> str:
    """The table in one format.  Every format is made one row at a time,
    so a lazy `rows` never has every row's cells at once; json is the text
    of `json.dumps({"columns": cols, "rows": [one dict per row]},
    indent=2)`, with no payload built."""
    if fmt == "markdown":
        head = "| " + " | ".join(cols) + " |"
        sep = "|" + "|".join("---" for _ in cols) + "|"
        body = ("| " + " | ".join(r) + " |" for r in rows)
        return "\n".join(chain([head, sep], body))
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        w.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "json":
        return "".join(_json_pieces(cols, rows))
    raise ValueError(f"unknown format {fmt!r}")


def _json_pieces(cols: list[str], rows: Iterable[list[str]]) -> Iterator[str]:
    """The text of `json.dumps({"columns": cols, "rows": [dict(zip(cols,
    r)) for r in rows]}, indent=2)` in pieces, one per row: each row's
    dict is dumped alone and indented two levels deeper, which a json
    string, holding no raw newline, leaves intact."""
    # the head, less its closing "\n}"
    yield json.dumps({"columns": cols}, indent=2)[:-2] + ',\n  "rows": ['
    sep = "\n    "
    for r in rows:
        yield sep + json.dumps(dict(zip(cols, r)), indent=2).replace("\n", "\n    ")
        sep = ",\n    "
    # json.dumps writes an empty list as []
    yield "]\n}" if sep == "\n    " else "\n  ]\n}"
