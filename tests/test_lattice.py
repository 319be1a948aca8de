import random
from itertools import combinations

import pytest

import moebius.lattice as lattice_module
from helpers import (brute_class_up, brute_exact_counts, brute_mu_top, brute_normalizer,
                     brute_relation, closure_mask, group, lattice, subgroups_of_order,
                     sublattice, summed_columns)
from moebius import build_from_spec
from moebius.cache import load_lattice, save_lattice
from moebius.catalog import family_specs
from moebius.classposet import conjugation_poset
from moebius.errors import BudgetExceeded, NotNormal
from moebius.groups import (bits, commutator_closure, conjugate_mask, derived_series,
                            find_witness, is_normal_mask, orbit_and_normalizer)
from moebius.lattice import enumerate_subgroups, mu_column
from moebius.verify import completeness_gaps, independent_small_lattice, run_battery

RELATION_SPECS = ["S:4", "D:12xC:2", "Q:8xS:3", "S:5", "A:6", "C:2xC:2xC:2xC:2"]


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


@pytest.mark.parametrize("spec", ["S:4", "S:5", "A:6", "D:4xD:4", "C:2xC:2xC:2xC:2xC:2"])
def test_completeness_certificate_holds_on_enumerated_lattices(spec):
    assert completeness_gaps(group(spec), lattice(spec)) == []


def test_battery_reports_a_missing_conjugacy_class():
    # S:5 without its six Frobenius subgroups of order 20: every other
    # check of the battery still passes, the zuppo joins do not
    G, lat = group("S:5"), lattice("S:5")
    (orbit,) = {lat.conjugacy_orbit(i) for i in lat.by_order[20]}
    broken = sublattice(lat, lambda i: i not in orbit)
    checks = {c["name"]: c for c in run_battery(G, t_max=1, lattice=broken)}
    assert not checks["lattice-completeness-zuppos"]["ok"]
    assert [name for name, c in checks.items() if not c["ok"]] == ["lattice-completeness-zuppos"]
    # a conjugate left out breaks closure under conjugation instead
    one_short = sublattice(lat, lambda i: i != orbit[0])
    assert completeness_gaps(G, one_short) == ["not closed under conjugation"]


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
    for s in lat.subgroups:
        assert closure_mask(lat.group, s.gens) == s.mask
        assert closure_mask(lat.group, find_witness(lat.group, s.mask)) == s.mask


@pytest.mark.parametrize("spec", ["S:4", "C:2xC:2xC:2", "C:2xC:2xC:120"])
def test_budget_exceeded(spec):
    # in an abelian group every subgroup is its own conjugacy orbit; the
    # count is the first one past the budget, whichever class passes it
    with pytest.raises(BudgetExceeded) as info:
        enumerate_subgroups(group(spec), budget=5)
    assert (info.value.count, info.value.budget) == (6, 5)


def _record_joins(monkeypatch) -> list[tuple[int, int]]:
    """(H's bitset, <H, z>'s bitset) for each join the enumerator makes,
    through the coset fill (first test) or the general closure step
    (second test), in the order made."""
    joins = []
    closure = lattice_module.extend_closure
    fill = lattice_module.fill_cosets

    def recorded(G, h_mask, h_elems, h_gens, x, within=None):
        out = closure(G, h_mask, h_elems, h_gens, x, within)
        joins.append((h_mask, out))
        return out

    def recorded_fill(G, h_mask, h_elems, x):
        out = fill(G, h_mask, h_elems, x)
        joins.append((h_mask, out[0]))
        return out

    monkeypatch.setattr(lattice_module, "extend_closure", recorded)
    monkeypatch.setattr(lattice_module, "fill_cosets", recorded_fill)
    return joins


@pytest.mark.parametrize("n", [4, 5, 6])
def test_one_join_per_nontrivial_subgroup(n, monkeypatch):
    # In C:2^n every subgroup is normal and every join <H, x> has index 2
    # over H.  A K found before H is extended is struck off by the
    # known-supergroup rule, and one found by an earlier join of H by the
    # prime-index coset rule, so each join finds a new subgroup: one join
    # per nontrivial subgroup
    joins = _record_joins(monkeypatch)
    lat = enumerate_subgroups(group("x".join(["C:2"] * n)))
    assert len(joins) == len(lat) - 1 == {4: 66, 5: 373, 6: 2824}[n]
    assert len({k for _, k in joins}) == len(joins)


@pytest.mark.parametrize("spec", ["C:2xC:2xC:2xC:2xC:2xC:2", "D:4xC:2xC:2xC:2", "Q:8xS:3"])
def test_no_join_returns_a_normal_subgroup_found_before(spec, monkeypatch):
    # every zuppo of a normal K found before, holding H with [K : H]
    # prime, is known before H's first join, and every join of these
    # solvable groups has prime index, so a normal K is returned once
    count = len(lattice(spec))
    joins = _record_joins(monkeypatch)
    G = group(spec)
    assert len(enumerate_subgroups(G)) == count
    returned, repeated = set(), []
    for _, k in joins:
        if k in returned and is_normal_mask(G, k):
            repeated.append(k)
        returned.add(k)
    assert joins and not repeated


@pytest.mark.parametrize("spec,count,walks", [
    ("S:6", 1455, 84), ("A:7", 3786, 93), ("C:2xC:2xS:4", 420, 73)])
def test_zuppo_orbits_are_walked_once_per_normalizer(spec, count, walks, monkeypatch):
    # an N_G(H)-orbit of zuppos depends on N_G(H) alone, so it is walked
    # once per normalizer and kept for every H with that normalizer;
    # orbits under a central N need no walk
    walked = [0]
    walk = lattice_module.orbit

    def counted(x, steps):
        walked[0] += bool(steps)
        return walk(x, steps)

    monkeypatch.setattr(lattice_module, "orbit", counted)
    assert len(enumerate_subgroups(group(spec))) == count
    assert walked[0] == walks


@pytest.mark.parametrize("spec", ["S:4", "S:5", "S:6", "D:12xC:2", "Q:8xS:3",
                                  "C:2xC:2xC:2xC:2"])
def test_joins_outside_the_residue_are_prime_index_extensions(spec, monkeypatch):
    # a join <H, z> with H outside R, the last term of the derived series,
    # is made only when z normalizes H and z^p lies in H: H is normal of
    # prime index in the result
    joins = _record_joins(monkeypatch)
    G = group(spec)
    residue = derived_series(G)[-1]
    lat = enumerate_subgroups(G)
    assert len(lat) == len(lattice(spec))
    outside = [(h, k) for h, k in joins if h & ~residue]
    assert outside
    for h, k in outside:
        index = k.bit_count() // h.bit_count()
        assert h & ~k == 0 and index > 1
        assert all(index % d for d in range(2, index))
        gens = lat.subgroups[lat.index[k]].gens
        assert all(conjugate_mask(G, h, g) == h for g in gens)


@pytest.mark.parametrize("spec", ["S:5", "A:6", "S:6", "A:7"])
def test_joins_inside_the_residue_stop_at_index_5(spec, monkeypatch):
    # every second-test join <H, z> lies in the perfect residue R and is
    # given R, so it stops once it must be R; what it returns is R or a
    # subgroup of index at least 5 in R, and equals <witness of H, z>; z
    # is a pi'-zuppo.  S:5 only joins C5 up to A5, so only A:6, S:6 and
    # A:7 also make joins that return a proper subgroup of R
    joins = []
    dropped = []
    closure = lattice_module.extend_closure
    drop = lattice_module._dropped_primes

    def recorded(G, h_mask, h_elems, h_gens, x, within=None):
        out = closure(G, h_mask, h_elems, h_gens, x, within)
        joins.append((h_mask, h_gens, x, within, out))
        return out

    def recorded_drop(primes):
        dropped.append(drop(primes))
        return dropped[-1]

    count = len(lattice(spec))
    monkeypatch.setattr(lattice_module, "extend_closure", recorded)
    monkeypatch.setattr(lattice_module, "_dropped_primes", recorded_drop)
    G = group(spec)
    residue = derived_series(G)[-1]
    assert len(enumerate_subgroups(G)) == count
    assert dropped == [{2, 3}]
    assert any(k == residue for *_, k in joins)
    assert any(k != residue for *_, k in joins) == (spec != "S:5")
    for h, h_gens, x, within, k in joins:
        assert within == residue
        assert k & ~residue == 0
        assert k == residue or residue.bit_count() // k.bit_count() >= 5
        assert k == closure_mask(G, h_gens + (x,))
        assert _prime_divisors(G.element_orders[x]).isdisjoint(dropped[0])
        assert _pi_prime_closure(G, h, dropped[0]) == h


def _prime_divisors(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))}


def _pi_prime_closure(G, mask, pi):
    """`closure_mask` of the elements of the subgroup `mask` of prime-power
    order outside pi, joined one at a time when outside the closure so far."""
    closed, gens = 1 << G.identity, []
    for x in bits(mask):
        ps = _prime_divisors(G.element_orders[x])
        if len(ps) == 1 and ps.isdisjoint(pi) and not (closed >> x) & 1:
            gens.append(x)
            closed = closure_mask(G, gens)
    return closed


@pytest.mark.parametrize("spec", ["A:5", "A:6", "S:6", "A:7", "A:5xA:5"])
def test_perfect_subgroups_are_generated_by_their_pi_prime_zuppos(spec):
    # the lemma second-test joins rest on: for a perfect K and any two
    # primes pi, K/O^pi(K) is a pi-group, solvable by Burnside's p^a q^b
    # theorem and perfect, so trivial, and K is generated by its elements
    # of prime-power order outside pi.  A perfect K != 1 has at least
    # three prime divisors (Burnside again), so only those are tested for
    # K' = K
    lat = lattice(spec)
    G = lat.group
    residue = derived_series(G)[-1]
    perfect = []
    for s in lat.subgroups:
        if s.mask & ~residue == 0 and (s.order == 1 or len(_prime_divisors(s.order)) >= 3):
            w = s.gens
            if commutator_closure(G, w, w, w)[0] == s.mask:
                perfect.append(s.mask)
    assert {1 << G.identity, residue} <= set(perfect)
    for pi in combinations(sorted(_prime_divisors(residue.bit_count())), 2):
        for k in perfect:
            assert _pi_prime_closure(G, k, pi) == k


def test_dropping_three_primes_loses_subgroups(monkeypatch):
    # a planted unsound narrowing: with pi = {2, 3, 5} on A:7 only 7-zuppos
    # are second-test candidates, and A5 and A6, generated by none of
    # them, are lost
    count = len(lattice("A:7"))
    monkeypatch.setattr(lattice_module, "_dropped_primes", lambda primes: {2, 3, 5})
    lat = enumerate_subgroups(group("A:7"))
    assert len(lat) < count == 3786
    assert 60 not in lat.by_order and 360 not in lat.by_order


@pytest.mark.parametrize("spec", ["S:4", "D:12xC:2", "C:2xC:2xC:2"])
def test_solvable_groups_skip_the_pi_bookkeeping(spec, monkeypatch):
    # R = 1: no second-test join, so pi is never chosen
    def fail(primes):
        raise AssertionError("pi chosen for a solvable group")

    count = len(lattice(spec))
    monkeypatch.setattr(lattice_module, "_dropped_primes", fail)
    assert len(enumerate_subgroups(group(spec))) == count


@pytest.mark.parametrize("spec", ["S:4", "A:5", "S:5", "D:12xC:2", "Q:8xS:3", "C:2xC:2xC:2"])
def test_normalizer_generators_generate_the_normalizer(spec):
    # the walk from each subgroup H gives N_G(H), generated by the returned
    # generators, and H's class, each member H^a with its witness conjugated
    lat = lattice(spec)
    G = lat.group
    for i, s in enumerate(lat.subgroups):
        w = s.gens
        members, mask, gens = orbit_and_normalizer(G, s.mask, w)
        assert mask == brute_normalizer(G, s.mask)
        assert closure_mask(G, gens) == mask
        assert members[0][0] == s.mask
        assert tuple(sorted(lat.index[c] for c, _, _, _ in members)) == lat.conjugacy_orbit(i)
        for c, elems, cw, a in members:
            assert c == conjugate_mask(G, s.mask, a) == sum(1 << x for x in elems)
            assert cw == tuple(G.mul(G.mul(G.inverse[a], x), a) for x in w)


@pytest.mark.parametrize("spec", ["S:4", "D:12xC:2", "Q:8xS:3"])
def test_orbit_walk_takes_the_elements_in_any_order(spec):
    # the enumerator hands a new subgroup's elements to the walk in the
    # order its cosets were filled; shuffled, they give the same members,
    # witnesses, carriers, N_G(H) and generators as the walk's own list,
    # and every member's element list holds exactly its bitset's elements
    lat = lattice(spec)
    G = lat.group
    rng = random.Random(spec)
    for s in lat.subgroups:
        w = s.gens
        elems = list(bits(s.mask))
        rng.shuffle(elems)
        members, norm, gens = orbit_and_normalizer(G, s.mask, w, elems)
        own_members, own_norm, own_gens = orbit_and_normalizer(G, s.mask, w)
        assert members[0][1] is elems
        assert [(c, cw, a) for c, _, cw, a in members] == \
            [(c, cw, a) for c, _, cw, a in own_members]
        assert (norm, gens) == (own_norm, own_gens)
        for c, c_elems, _, _ in members:
            assert sorted(c_elems) == list(bits(c))


@pytest.mark.parametrize("spec", ["S:4", "A:5", "S:5", "D:12xC:2", "Q:8xS:3"])
@pytest.mark.parametrize("source", ["enumerated", "cached"])
def test_normalizer_masks_match_brute_scan(spec, source, tmp_path):
    # a lattice, fresh or cache-loaded, keeps its representatives'
    # normalizers and walks any other id asked for on its own, here from
    # the largest down, so most walks start at a non-representative;
    # D:12xC:2 has a central generator, which starts every normalizer
    lat = lattice(spec)
    if source == "cached":
        save_lattice(lat, tmp_path)
        lat = load_lattice(group(spec), tmp_path)
    G = lat.group
    for i in reversed(range(len(lat))):
        assert lat.normalizer_mask(i) == brute_normalizer(G, lat.subgroups[i].mask)


def test_normalizer_examples():
    lat = lattice("A:5")
    c2 = subgroups_of_order("A:5", 2)[0]
    assert lat.normalizer_mask(lat.index[c2.mask]).bit_count() == 4
    # normal subgroup: normalizer is G
    lat4 = lattice("S:4")
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(lat4.group, s.mask))
    assert lat4.normalizer_mask(lat4.index[v4.mask]).bit_count() == 24
    syl = subgroups_of_order("S:4", 8)[0]
    assert lat4.normalizer_mask(lat4.index[syl.mask]).bit_count() == 8


def test_normalizer_against_conjugation_scan():
    lat = lattice("S:4")
    G = lat.group
    for s in lat.subgroups:
        brute = brute_normalizer(G, s.mask)
        assert lat.normalizer_mask(lat.index[s.mask]) == brute
        assert s.mask & ~brute == 0  # N_G(H) contains H
        # |G : N| equals the number of distinct conjugates
        orbit = lat.conjugacy_orbit(lat.index[s.mask])
        assert len(orbit) * lat.normalizer_mask(lat.index[s.mask]).bit_count() == G.order


def test_intersect_and_join():
    lat = lattice("S:4")
    h = subgroups_of_order("S:4", 6)[0]
    triv = lat.subgroups[lat.trivial_id]
    assert lat.subgroups[lat.index[h.mask & h.mask]] == h
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


@pytest.mark.parametrize("source", ["enumerated", "cached"])
@pytest.mark.parametrize("spec", RELATION_SPECS)
def test_relation_matches_pairwise_scan(spec, source, tmp_path):
    """The inclusion bitsets give what testing every pair of masks gives,
    also on a lattice read back from the cache, whose witnesses other than
    the representatives' come from its own class walks."""
    enumerated = lattice(spec)
    if source == "cached":
        save_lattice(enumerated, tmp_path)
        lat = load_lattice(enumerated.group, tmp_path)
        assert all(closure_mask(lat.group, s.gens) == s.mask for s in lat.subgroups)
    else:
        lat = sublattice(enumerated)
    up, down = brute_relation(lat)
    assert lat.up == up
    assert lat.down == down
    assert lat.maximals == [i for i, u in enumerate(up) if u == [lat.top_id]]
    assert [lat.sigma(i) for i in range(len(lat))] == [len(d) + 1 for d in down]
    assert lat.mu_top == brute_mu_top(up, lat.top_id)


def _check_class_incidence(lat):
    """Every m(c, d) of `incidence` against a mask scan, #{K in orbit(d) :
    K <= rep_c}, zeros included (no weight list means every weight is 1);
    then sigma, the maximals and the exact counts it gives against the
    pairwise relation."""
    classes = lat.conjugation.classes
    subs = lat.subgroups
    for c, (below, marks) in enumerate(lat.incidence):
        assert (marks is None) == (lat.conjugation.blocks is None)
        rep_mask = subs[classes[c][0]].mask
        table = dict(zip(below, [1] * len(below) if marks is None else marks))
        for d, (_, orbit) in enumerate(classes):
            scan = sum(1 for k in orbit if subs[k].mask & ~rep_mask == 0)
            assert table.get(d, 0) == scan, (c, d)
    up, down = brute_relation(lat)
    sigma = [len(below) + 1 for below in down]
    assert [lat.sigma(i) for i in range(len(lat))] == sigma
    assert lat.maximals == [i for i, u in enumerate(up) if u == [lat.top_id]]
    orders = [s.order for s in subs]
    for t in (1, 2, 3):
        assert lat.phi_exact(t) == brute_exact_counts(down, orders, t)
    assert lat.gamma_exact(2) == brute_exact_counts(down, sigma, 2)


@pytest.mark.parametrize("source", ["enumerated", "cached"])
@pytest.mark.parametrize("spec", ["S:5", "A:6"])
def test_class_incidence_matches_mask_scan(spec, source, tmp_path):
    """The class-incidence table and what the engine reads off it, also on
    a lattice read back from the cache."""
    enumerated = lattice(spec)
    if source == "cached":
        save_lattice(enumerated, tmp_path)
        lat = load_lattice(enumerated.group, tmp_path)
    else:
        lat = sublattice(enumerated)
    _check_class_incidence(lat)


def test_class_incidence_matches_mask_scan_up_to_order_24():
    for spec in family_specs(24):
        _check_class_incidence(enumerate_subgroups(build_from_spec(spec)))


def _check_cached_matches_fresh(spec, cache_dir):
    """A lattice read back from the cache is the fresh one as built: the
    same subgroups in the same order, the same conjugacy classes, one
    normalizer per class, at its representative, and the same
    representatives' witnesses."""
    fresh = enumerate_subgroups(build_from_spec(spec))
    save_lattice(fresh, cache_dir)
    cached = load_lattice(fresh.group, cache_dir)
    assert [s.mask for s in cached.subgroups] == [s.mask for s in fresh.subgroups], spec
    assert cached.conjugation.classes == fresh.conjugation.classes, spec
    assert cached.conjugation.class_of == fresh.conjugation.class_of, spec
    reps = fresh.class_representatives()
    assert sorted(fresh._normalizer) == reps, spec
    assert cached._normalizer == fresh._normalizer, spec
    assert [cached.subgroups[r].gens for r in reps] == \
        [fresh.subgroups[r].gens for r in reps], spec


@pytest.mark.parametrize("spec", ["S:6", "A:7"])
def test_cached_lattice_matches_the_fresh_one(spec, tmp_path):
    _check_cached_matches_fresh(spec, tmp_path)


def test_cached_lattice_matches_the_fresh_one_up_to_order_24(tmp_path):
    for spec in family_specs(24):
        _check_cached_matches_fresh(spec, tmp_path)


@pytest.mark.parametrize("source", ["enumerated", "cached"])
@pytest.mark.parametrize("spec", ["C:2xC:2xC:2xC:2xC:2", "Q:8xC:2", "S:4", "D:12xC:2", "A:5"])
def test_mu_columns_match_defining_sums(spec, source, tmp_path):
    """Both Moebius columns against the defining sums over the pairwise
    relations: abelian and Hamiltonian groups (every class a singleton)
    and groups with larger classes, also on a lattice read back from the
    cache, with nothing computed yet."""
    lat = enumerate_subgroups(group(spec))
    if source == "cached":
        save_lattice(lat, tmp_path)
        lat = load_lattice(lat.group, tmp_path)
        assert not lat._upeq and lat._mu_top is None and not lat._conj_orbit
    up = brute_relation(lat)[0]
    assert lat.mu_top == brute_mu_top(up, lat.top_id)
    pos = conjugation_poset(lat)
    assert pos.mu_top == brute_mu_top(brute_class_up(pos), pos.top)
    # sweeps seeded with random sets of conjugacy classes over the
    # lattice's blocked rows (one row per class, each class owning its
    # orbit's ids): the sum over the seeds' members z of mu(rep, z), as
    # single-seed sweeps and as defining sums over the pairwise relation
    classes = lat.conjugation.classes
    rows = lat.upeq([r for r, _ in classes])
    blocks = [sum(1 << j for j in orbit) for _, orbit in classes]
    rng = random.Random(spec)
    for size in (1, 2, 4):
        zs = rng.sample(range(len(classes)), min(size, len(classes)))
        brute = [0] * len(classes)
        for z in (j for c in zs for j in classes[c][1]):
            col = brute_mu_top(up, z)
            brute = [v + col[r] for v, (r, _) in zip(brute, classes)]
        assert mu_column(rows, zs, blocks) == summed_columns(rows, zs, blocks) == brute, zs
    assert mu_column(rows, [], blocks) == [0] * len(classes)
