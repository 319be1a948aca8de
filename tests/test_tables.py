"""Subgroup names and the tables built on them."""

import hashlib
from collections import Counter

import pytest

from helpers import closure_mask, lattice
from moebius import cli, counting
from moebius.tables import name_subgroup


def exhaustive_name(lat, i, pair_limit=72):
    """Every element, then every pair, then every triple, each closed
    from scratch: the definition of the name, with no pruning."""
    if i == lat.trivial_id:
        return "1"
    if i == lat.top_id:
        return "G"
    G = lat.group
    s = lat.subgroups[i]
    elems = [x for x in s.elements() if x != G.identity]
    cyc = G.permutation
    for x in elems:
        if closure_mask(G, (x,)) == s.mask:
            return f"<{cyc(x).cycle_string()}>"
    if s.order <= pair_limit:
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                if closure_mask(G, (elems[a], elems[b])) == s.mask:
                    return f"<{cyc(elems[a]).cycle_string()},{cyc(elems[b]).cycle_string()}>"
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                for c in range(b + 1, len(elems)):
                    gens = (elems[a], elems[b], elems[c])
                    if closure_mask(G, gens) == s.mask:
                        return "<" + ",".join(cyc(x).cycle_string() for x in gens) + ">"
    k = lat.by_order[s.order].index(i)
    return f"order={s.order}#{k}"


# d(H) = 1, 2 and 3, subgroups that need four or more generators, odd primes
@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3", "A:6", "C:2xC:2xC:2xC:2xC:2",
                                  "D:4xD:4", "C:4xC:4xC:2xC:2", "D:8xC:2xC:2"])
def test_names_match_exhaustive_search(spec):
    lat = lattice(spec)
    for i in range(len(lat)):
        assert name_subgroup(lat, i) == exhaustive_name(lat, i)


def test_names_go_through_the_one_search(monkeypatch):
    # every word longer than one generator comes from the search that also
    # lifts tuples modulo N; in A6 that is every non-cyclic proper subgroup
    lat = lattice("A:6")
    expected = [name_subgroup(lat, i) for i in range(len(lat))]
    search = counting.first_generating_tuple
    targets = set()

    def recorded(G, target, t, cosets=None):
        assert cosets is None
        targets.add(target)
        return search(G, target, t, cosets)

    monkeypatch.setattr(counting, "first_generating_tuple", recorded)
    assert [name_subgroup(lat, i) for i in range(len(lat))] == expected
    G = lat.group
    noncyclic = {s.mask for s in lat.subgroups
                 if s.order not in (1, G.order)
                 and all(G.element_orders[x] != s.order for x in s.elements())}
    assert noncyclic and targets == noncyclic


def _shape(name):
    if name in ("1", "G") or name.startswith("order="):
        return name.split("#")[0]
    # generators are joined by "," between a closing and an opening bracket
    return name.count("),(") + 1


def test_elementary_abelian_name_shapes():
    """In C:2^6 a subgroup of rank r has an r-generator name up to r = 3."""
    lat = lattice("C:2xC:2xC:2xC:2xC:2xC:2")
    names = [name_subgroup(lat, i) for i in range(len(lat))]
    assert Counter(_shape(n) for n in names) == {
        "1": 1, "G": 1, 1: 63, 2: 651, 3: 1395, "order=16": 651, "order=32": 63}
    for i, n in enumerate(names):
        if n.startswith("order="):
            assert cli.select_subgroup(lat, n) is lat.subgroups[i]


# sha256 of the CLI output, recorded before names and down-sets were pruned
GOLDEN = {
    ("table", "D:4xD:4", "--aut", "inn", "--format", "json"):
        "47cec066907e3d74660c48e61c06b5d69e6b1353f1093aaf31e3f47b9f1de11a",
    ("sigma-table", "D:4xD:4"):
        "93318d24e441541ed416439a0b67b27c2ac662ffa4594838f2fbbda632212460",
    ("table", "C:2xC:2xC:2xC:2", "--aut", "inn", "--omega2"):
        "a2829b6366c82a7ba125a2e2c8405ac3d589c4954e1d2743673f3518d8cc87fa",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_table_output_is_unchanged(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
