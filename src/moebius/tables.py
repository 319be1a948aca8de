"""Table assembly and rendering (markdown / csv / json).

Classes are listed by representative order descending, ties by bitset.
Numeric cells are decimal strings so arbitrary-precision values survive
every format.
"""

from __future__ import annotations

import csv
import io
import json

from . import counting
from .classposet import ClassPoset, kappa
from .groups import (FiniteGroup, Subgroup, bits, commutator_closure,
                     extend_closure)
from .lattice import SubgroupLattice


# the largest order of a subgroup whose generator word is searched for
WORD_ORDER_LIMIT = 72


def name_subgroup(lattice: SubgroupLattice, i: int) -> str:
    """Canonical generator word: shortest, then lexicographic by index.

    A word has at most three generators and is looked for only when
    |H| <= WORD_ORDER_LIMIT (any cyclic H gets its one-generator word); any
    other subgroup is named `order=N#k`, its selector.  The searches are
    pruned without changing the word found: x generates H exactly when
    its order is |H|, a tuple extending a prefix by an element of the
    prefix's closure is skipped (a shorter tuple already failed), and
    tuple lengths below the lower bound of `_min_generators` are not
    tried at all.
    """
    if i == lattice.trivial_id:
        return "1"
    if i == lattice.top_id:
        return "G"
    G = lattice.group
    s = lattice.subgroups[i]
    elems = [x for x in s.elements() if x != G.identity]
    orders = G.element_orders
    gens = next(((x,) for x in elems if orders[x] == s.order), None)
    if gens is None and s.order <= WORD_ORDER_LIMIT:
        least = _min_generators(G, s, lattice.witness(i))
        for k in range(max(2, least), 4):
            gens = _generating_subset(G, s.mask, elems, k)
            if gens is not None:
                break
    if gens is not None:
        return "<" + ",".join(G.permutation(x).cycle_string() for x in gens) + ">"
    k = lattice.by_order[s.order].index(i)
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


def _generating_subset(G: FiniteGroup, mask: int, elems: list[int], k: int):
    """The first k-subset of elems, lexicographic by position, that
    generates the subgroup `mask`, or None.  Closures of prefixes are
    built once each with `extend_closure`.  Three prunes skip only
    tuples that cannot generate the subgroup, so the tuple found is the
    same:
    - an element already in its prefix's closure is skipped, because
      that tuple generates what a shorter tuple does, and no shorter
      tuple generates the subgroup;
    - for the last element, every x in a join <P, y> that fell short is
      skipped, P the prefix's closure: <P, x> lies inside it;
    - a (k-1)-prefix whose closure J an earlier one had is skipped.  The
      earlier one found no last element after it, and any before it
      would complete a tuple that comes earlier still, all of which
      failed, so no x at all gives <J, x> the whole subgroup."""
    dead: set[int] = set()      # closures of (k-1)-prefixes that failed

    def search(start: int, cur: int, cur_elems: list[int], prefix: tuple):
        last = len(prefix) == k - 1
        before_last = len(prefix) == k - 2
        short = cur
        for j in range(start, len(elems)):
            x = elems[j]
            if (short >> x) & 1:
                continue
            nxt = extend_closure(G, cur, cur_elems, prefix, x)
            if last:
                if nxt == mask:
                    return prefix + (x,)
                short |= nxt
                continue
            if before_last and nxt in dead:
                continue
            found = search(j + 1, nxt, list(bits(nxt)), prefix + (x,))
            if found is not None:
                return found
            if before_last:
                dead.add(nxt)
        return None

    return search(0, 1 << G.identity, [G.identity], ())


def display_order(poset: ClassPoset) -> list[int]:
    """Class ids sorted by representative order descending, then bitset."""
    return sorted(range(len(poset.classes)),
                  key=lambda c: (-poset.rep_order(c), poset.rep(c).mask))


def class_table(poset: ClassPoset, include_omega2: bool = False) -> tuple[list[str], list[list[str]]]:
    """The mu_A / omega / kappa / sigma table over all classes."""
    lat = poset.lattice
    cols = ["class", "mu_A", "omega1"]
    if include_omega2:
        cols.append("omega2")
    cols += ["kappa", "sigma"]
    rows = []
    for c in display_order(poset):
        rep_id = poset.classes[c][0]
        row = [name_subgroup(lat, rep_id),
               str(poset.mu_top[c]),
               str(counting.omega(poset, c, 1))]
        if include_omega2:
            row.append(str(counting.omega(poset, c, 2)))
        row.append(str(kappa(lat, lat.subgroups[rep_id])))
        row.append(str(lat.sigma(rep_id)))
        rows.append(row)
    return cols, rows


def lattice_mu_table(lattice: SubgroupLattice) -> tuple[list[str], list[list[str]]]:
    """Per-conjugacy-class mu / kappa / sigma table (plain lattice Moebius)."""
    entries = lattice.class_representatives()
    entries.sort(key=lambda i: (-lattice.subgroups[i].order, lattice.subgroups[i].mask))
    cols = ["class", "mu", "kappa", "sigma"]
    rows = []
    for i in entries:
        rows.append([name_subgroup(lattice, i),
                     str(lattice.mu_top[i]),
                     str(kappa(lattice, lattice.subgroups[i])),
                     str(lattice.sigma(i))])
    return cols, rows


def render(cols: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "markdown":
        head = "| " + " | ".join(cols) + " |"
        sep = "|" + "|".join("---" for _ in cols) + "|"
        body = ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join([head, sep] + body)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        w.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "json":
        return json.dumps({"columns": cols,
                           "rows": [dict(zip(cols, r)) for r in rows]},
                          indent=2, sort_keys=False)
    raise ValueError(f"unknown format {fmt!r}")
