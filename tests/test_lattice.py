import pytest

from helpers import group, lattice, subgroups_of_order
from moebius.errors import BudgetExceeded, NotNormal
from moebius.groups import closure_mask, conjugate_mask, is_normal_mask
from moebius.lattice import enumerate_subgroups, find_witness
from moebius.verify import independent_small_lattice


@pytest.mark.parametrize("spec,count", [
    ("S:4", 30), ("A:5", 59), ("C:12", 6), ("A:4", 10), ("Q:8", 6),
    ("D:7", 10), ("S:3", 6), ("C:2xC:2xC:2", 16),
    ("S:5", 156), ("A:6", 501), ("S:6", 1455),
])
def test_subgroup_counts(spec, count):
    assert len(lattice(spec)) == count


@pytest.mark.parametrize("spec,classes", [("S:5", 19), ("A:6", 22), ("S:6", 56)])
def test_class_counts(spec, classes):
    assert len(lattice(spec).class_representatives()) == classes


@pytest.mark.parametrize("spec", ["S:4", "A:4", "C:12", "D:7", "Q:8",
                                  "C:2xC:2xC:2", "C:2xD:3", "S:3xC:4",
                                  "D:12", "S:3xC:3", "D:4xC:2", "Q:8xC:3"])
def test_completeness_against_independent_oracle(spec):
    lat = lattice(spec)
    oracle = independent_small_lattice(lat.group)
    assert {s.mask for s in lat.subgroups} == oracle


@pytest.mark.parametrize("spec", ["S:4", "A:5", "Q:8", "C:12"])
def test_lagrange_and_ordering(spec):
    lat = lattice(spec)
    n = lat.group.order
    orders = [s.order for s in lat.subgroups]
    assert all(n % o == 0 for o in orders)
    assert orders == sorted(orders)
    keys = [(s.order, s.mask) for s in lat.subgroups]
    assert keys == sorted(keys)


@pytest.mark.parametrize("spec", ["S:4", "A:4", "D:7"])
def test_witnesses_generate(spec):
    lat = lattice(spec)
    for i, s in enumerate(lat.subgroups):
        assert closure_mask(lat.group, lat.witness(i)) == s.mask
        assert closure_mask(lat.group, find_witness(lat.group, s.mask)) == s.mask


@pytest.mark.parametrize("spec", ["S:4", "C:2xC:2xC:2", "C:2xC:2xC:120"])
def test_budget_exceeded(spec):
    # in an abelian group every subgroup is its own conjugacy orbit
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(group(spec), budget=5)


def test_normalizer_examples():
    lat = lattice("A:5")
    c2 = subgroups_of_order("A:5", 2)[0]
    assert lat.normalizer(c2).order == 4
    # normal subgroup: normalizer is G
    lat4 = lattice("S:4")
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(lat4.group, s.mask))
    assert lat4.normalizer(v4).order == 24
    syl = subgroups_of_order("S:4", 8)[0]
    assert lat4.normalizer(syl).order == 8


def test_normalizer_against_conjugation_scan():
    lat = lattice("S:4")
    G = lat.group
    for s in lat.subgroups:
        brute = 0
        for g in range(G.order):
            if conjugate_mask(G, s.mask, g) == s.mask:
                brute |= 1 << g
        assert lat.normalizer(s).mask == brute
        assert s.mask & ~brute == 0  # N_G(H) contains H
        # |G : N| equals the number of distinct conjugates
        orbit = lat.conjugacy_orbit(lat.index[s.mask])
        assert len(orbit) * lat.normalizer(s).order == G.order


def test_intersect_and_join():
    lat = lattice("S:4")
    h = subgroups_of_order("S:4", 6)[0]
    triv = lat.subgroups[lat.trivial_id]
    assert lat.intersect(h, h) == h
    assert lat.join(h, triv) == h
    # two disjoint transpositions join to a four-group
    G = lat.group
    t1 = next(s for s in subgroups_of_order("S:4", 2)
              if G.permutation(s.elements()[0] if s.elements()[0] != G.identity
                               else s.elements()[1]).cycle_string() == "(1,2)")
    t2 = next(s for s in subgroups_of_order("S:4", 2)
              if G.permutation([x for x in s.elements() if x != G.identity][0])
              .cycle_string() == "(3,4)")
    assert lat.join(t1, t2).order == 4


def test_point_stabilizer_intersections_in_a5():
    lat = lattice("A:5")
    a4s = subgroups_of_order("A:5", 12)
    assert len(a4s) == 5
    inter = a4s[0].mask & a4s[1].mask
    assert inter.bit_count() == 3


def test_closure_in_maximals():
    lat = lattice("S:4")
    top = lat.subgroups[lat.top_id]
    assert lat.closure_in_maximals(top) == top
    for m in lat.maximals:
        s = lat.subgroups[m]
        assert lat.closure_in_maximals(s) == s
    # C4 in S4 is not closed: only D4 sits above it
    c4 = next(s for s in subgroups_of_order("S:4", 4)
              if lat.group.element_orders[s.elements()[1]] == 4
              or any(lat.group.element_orders[x] == 4 for x in s.elements()))
    assert lat.closure_in_maximals(c4).order == 8
    # the lambda = 2 class of A5: <(1,2)(3,4)> is an intersection of maximals
    lat5 = lattice("A:5")
    c2 = subgroups_of_order("A:5", 2)[0]
    assert lat5.closure_in_maximals(c2) == c2


@pytest.mark.parametrize("spec", ["S:4", "A:5", "Q:8", "C:12"])
def test_closure_axioms_on_subgroups(spec):
    lat = lattice(spec)
    cl = {s.mask: lat.closure_in_maximals(s).mask for s in lat.subgroups}
    for s in lat.subgroups:
        assert s.mask & ~cl[s.mask] == 0          # extensive
        assert cl[cl[s.mask]] == cl[s.mask]       # idempotent
    for a in lat.subgroups:
        for b in lat.subgroups:
            if a.mask & ~b.mask == 0:
                assert cl[a.mask] & ~cl[b.mask] == 0  # monotone


def test_frattini():
    assert lattice("C:8").frattini().order == 4
    assert lattice("S:4").frattini().order == 1
    q8 = lattice("Q:8")
    assert q8.frattini().order == 2
    assert q8.frattini().mask == q8.group.center_mask


def test_complements():
    lat = lattice("S:3")
    c3 = subgroups_of_order("S:3", 3)[0]
    comps = lat.complements(c3)
    assert len(comps) == 3 and all(k.order == 2 for k in comps)

    lat4 = lattice("C:4")
    c2 = subgroups_of_order("C:4", 2)[0]
    assert lat4.complements(c2) == []

    latA4 = lattice("A:4")
    v4 = subgroups_of_order("A:4", 4)[0]
    comps = latA4.complements(v4)
    assert len(comps) == 4 and all(k.order == 3 for k in comps)
    # restricted to those containing a fixed C3
    c3 = subgroups_of_order("A:4", 3)[0]
    assert latA4.complements(v4, c3) == [c3]


def test_complements_not_normal():
    lat = lattice("S:3")
    c2 = subgroups_of_order("S:3", 2)[0]
    with pytest.raises(NotNormal):
        lat.complements(c2)


def test_sigma_values_inside_a5():
    lat = lattice("A:5")
    by = {12: 10, 6: 6, 10: 8}
    for order, sigma in by.items():
        i = lat.by_order[order][0]
        assert lat.sigma(i) == sigma
    assert lat.sigma(lat.top_id) == 59
    assert lat.sigma(lat.trivial_id) == 1


def test_lattice_mu_column():
    lat = lattice("A:5")
    assert lat.mu_top[lat.trivial_id] == -60
    mu_by_order = {}
    for i, s in enumerate(lat.subgroups):
        mu_by_order.setdefault(s.order, set()).add(lat.mu_top[i])
    assert mu_by_order[2] == {4}
    assert mu_by_order[3] == {2}
    assert mu_by_order[4] == {0}
    assert mu_by_order[5] == {0}
    assert mu_by_order[12] == {-1}
    # D7: mu(1, G) = |G'| since lambda(1) = 1
    lat7 = lattice("D:7")
    assert lat7.mu_top[lat7.trivial_id] == 7
