import time
from fractions import Fraction

import pytest

from helpers import (brute_class_up, brute_exact_counts, brute_hall_sum, brute_lift,
                     brute_lift_scan, brute_relative_counts,
                     class_by, closure_mask, group, lattice, omega_inclusion_exclusion,
                     poset, subgroups_of_order)
from moebius import counting
from moebius.automorphisms import full_automorphism_group
from moebius.catalog import family_specs
from moebius.classposet import build_class_poset
from moebius.errors import BudgetExceeded, LiftNotGenerating, NotInvariant, NotNormal
from moebius.groups import commutator_subgroup, is_normal_mask, product_covers, quotient_group
from moebius.lattice import enumerate_subgroups, mu_column
from moebius.verify import run_battery


def test_phi_paper_values():
    assert counting.phi_hall(lattice("A:5"), 2) == 2280
    assert counting.phi_via_classes(poset("A:5"), 2) == 2280
    assert counting.phi_bruteforce(group("A:5"), 2) == 2280
    assert 2280 * 30 == 19 * 3600


def test_phi_trivial_values():
    assert counting.phi_hall(lattice("C:6"), 1) == 2
    assert counting.phi_hall(lattice("C:2"), 1) == 1
    assert counting.phi_bruteforce(group("S:3"), 2) == 18
    assert counting.phi_hall(lattice("S:3"), 2) == 18


@pytest.mark.parametrize("spec, t, phi, phi_star", [
    ("A:5", 2, 2280, 2497),         # phi(A5, 2): P. Hall, 1936
    ("S:4", 2, 216, 483),
    ("D:4xC:2", 2, None, 503),
    ("D:4xC:2", 3, 1344, None),
])
def test_pinned_counts_on_every_route(spec, t, phi, phi_star):
    # the Hall sum over classes, the class-poset sum under Inn(G) and the
    # literal scan give each pinned value
    lat, pos = lattice(spec), poset(spec)
    if phi is not None:
        assert counting.phi_hall(lat, t) == phi
        assert counting.phi_via_classes(pos, t) == phi
        assert counting.phi_bruteforce(lat.group, t) == phi
    if phi_star is not None:
        assert counting.phi_star_hall(lat, t) == phi_star
        assert counting.phi_star(pos, t) == phi_star
        assert counting.phi_star_bruteforce(lat, t) == phi_star


C26 = "C:2xC:2xC:2xC:2xC:2xC:2"


@pytest.mark.parametrize("spec", family_specs(24) + ["A:5", "S:5", "D:12xC:2", C26])
def test_hall_sums_over_classes_match_the_sum_over_every_subgroup(spec):
    # one term per conjugacy class, counted once per member, is the sum
    # over every subgroup, for |K|, sigma(K), |K : N| over the K holding N
    # and |K meet N| over the K with KN = G, here by orders
    lat = lattice(spec)
    G, subs = lat.group, lat.subgroups
    for t in (1, 2, 3):
        assert counting.phi_hall(lat, t) == brute_hall_sum(lat, lambda i: subs[i].order, t)
        assert counting.phi_star_hall(lat, t) == brute_hall_sum(lat, lat.sigma, t)
    normals = [N for N in subs if is_normal_mask(G, N.mask)]
    if spec == C26:
        # every class a singleton, so the class sum is the subgroup sum
        # term by term: the first N of each order, not all 2825
        normals = [subs[ids[0]] for ids in lat.by_order.values()]
    for N in normals:
        def quotient_size(i):
            return subs[i].order // N.order if N.mask & ~subs[i].mask == 0 else 0

        def relative_size(i):
            meet = (subs[i].mask & N.mask).bit_count()
            return meet if subs[i].order * N.order == G.order * meet else 0

        for t in (1, 2, 3):
            value = counting.phi_quotient(lat, N, t)
            assert value == brute_hall_sum(lat, quotient_size, t), (N.order, t)
            if value:
                assert counting.phi_relative(lat, N, t) == \
                    brute_hall_sum(lat, relative_size, t), (N.order, t)


@pytest.mark.parametrize("spec", ["S:4", "A:4", "C:2xC:2", "D:6", "Q:8"])
def test_noncyclic_phi1_zero(spec):
    assert counting.phi_hall(lattice(spec), 1) == 0


def test_phi_via_classes_s4_displayed_sum():
    pos = poset("S:4")
    total = sum(pos.mu_top[c] * counting.omega(pos, c, 1)
                for c in range(len(pos.classes)))
    assert total == counting.phi_hall(lattice("S:4"), 1) == 0


def test_a5_displayed_t1_sum():
    pos = poset("A:5")
    assert counting.phi_via_classes(pos, 1) == 0


@pytest.mark.parametrize("spec", ["S:4", "A:4", "D:6", "C:12", "Q:8", "S:3xC:2"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_triple_agreement_small(spec, t):
    lat = lattice(spec)
    val = counting.phi_hall(lat, t)
    assert counting.phi_bruteforce(lat.group, t) == val
    for aut in ("1", "inn", "aut"):
        assert counting.phi_via_classes(poset(spec, aut), t) == val


def test_phi_bruteforce_budget():
    with pytest.raises(BudgetExceeded):
        counting.phi_bruteforce(group("A:5"), 8)


def test_tuples_exceed_matches_the_power():
    for n in range(1, 7):
        for t in range(1, 40):
            for budget in (1, 2, 7, 8, 9, 63, 64, 65, 10 ** 3, 10 ** 8):
                assert counting.tuples_exceed(n, t, budget) == (n ** t > budget), (n, t, budget)


def test_phi_bruteforce_refuses_a_huge_t_at_once():
    # 24^(10^9) has about 1.4e9 digits: the budget check never builds it
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"tuple scan exceeded budget: 24\^1000000000 > 100000000"):
        counting.phi_bruteforce(group("S:4"), 10 ** 9)
    assert time.perf_counter() - start < 1


def test_omega_examples():
    pos = poset("S:4")
    s3 = class_by(pos, order=6)
    assert counting.omega(pos, s3, 1) == 15
    d5 = class_by(poset("A:5"), order=10)
    assert counting.omega(poset("A:5"), d5, 2) == 550


def test_omega_trivial_action_is_power():
    pos = poset("S:4", "1")
    for c in range(len(pos.classes)):
        assert counting.omega(pos, c, 2) == pos.rep(c).order ** 2


@pytest.mark.parametrize("spec,aut", [("S:4", "inn"), ("A:5", "inn"),
                                      ("A:4", ("inn", 4, 0))])
@pytest.mark.parametrize("t", [1, 2])
def test_omega_inclusion_exclusion_crosscheck(spec, aut, t):
    pos = poset(spec, aut)
    for c in range(len(pos.classes)):
        if len(pos.orbit(c)) <= 12:
            assert counting.omega(pos, c, t) == \
                omega_inclusion_exclusion(pos, c, t)


def test_omega_singleton_orbit_equality():
    pos = poset("S:4")
    for c in range(len(pos.classes)):
        om = counting.omega(pos, c, 2)
        if len(pos.orbit(c)) == 1:
            assert om == pos.rep(c).order ** 2
        else:
            assert om > pos.rep(c).order ** 2


@pytest.mark.parametrize("spec", ["S:4", "D:12xC:2", "Q:8xS:3"])
@pytest.mark.parametrize("aut", ["inn", "1", "aut", ("inn", 4, 0)])
def test_downset_ids_match_mask_scan(spec, aut):
    """omega and sigma_tuples, summed over the classes below c in the
    class rows, equal the exact counts summed over a scan of every
    subgroup against every orbit mask of the class."""
    pos = poset(spec, aut)
    lat = pos.lattice
    subs = lat.subgroups
    for c in range(len(pos.classes)):
        omasks = [subs[m].mask for m in pos.orbit(c)]
        scan = [i for i, s in enumerate(subs)
                if any(s.mask & ~om == 0 for om in omasks)]
        for t in (1, 2):
            assert counting.omega(pos, c, t) == sum(lat.phi_exact(t)[i] for i in scan)
            assert counting.sigma_tuples(pos, c, t) == sum(lat.gamma_exact(t)[i] for i in scan)


def test_psi_inversion_relation():
    """sum of psi over classes below [H] recovers omega."""
    for spec in ("S:4", "A:5"):
        pos = poset(spec)
        for t in (1, 2):
            for c in range(len(pos.classes)):
                total = sum(counting.psi(pos, k, t)
                            for k in range(len(pos.classes)) if pos.rows()[k] >> c & 1)
                assert total == counting.omega(pos, c, t)


def test_phi_exact_against_interval_moebius():
    lat = lattice("S:4")
    pos = poset("S:4", "1")
    phi2 = lat.phi_exact(2)
    for i, s in enumerate(lat.subgroups):
        col = mu_column(pos.rows(), [i])
        direct = s.order ** 2 + sum(col[j] * lat.subgroups[j].order ** 2
                                    for j in lat.down[i])
        assert phi2[i] == direct


def test_phi_exact_of_whole_group_is_phi():
    lat = lattice("S:4")
    for t in (1, 2, 3):
        assert lat.phi_exact(t)[lat.top_id] == counting.phi_hall(lat, t)


# -- relative counts ----------------------------------------------------------

def test_phi_relative_s3():
    lat = lattice("S:3")
    c3 = subgroups_of_order("S:3", 3)[0]
    # a single element never generates S3: the relative count at t=1 is 0
    assert counting.phi_relative(lat, c3, 1) == 0
    lifts = brute_lift(lat.group, c3, 1)
    assert brute_lift_scan(lat, c3, lifts, 1) == 0
    assert counting.phi_relative(lat, c3, 2) == 6
    lifts = brute_lift(lat.group, c3, 2)
    assert brute_lift_scan(lat, c3, lifts, 2) == 6
    assert counting.phi_relative_via_classes(poset("S:3"), c3, 2) == 6


def test_phi_relative_endpoints():
    lat = lattice("S:4")
    full = lat.subgroups[lat.top_id]
    for t in (1, 2):
        assert counting.phi_relative(lat, full, t) == counting.phi_hall(lat, t)
    triv = lat.subgroups[lat.trivial_id]
    assert counting.phi_relative(lat, triv, 2) == 1


def test_phi_relative_raises_when_quotient_needs_more_generators():
    lat = lattice("C:2xC:2")
    triv = lat.subgroups[lat.trivial_id]
    with pytest.raises(LiftNotGenerating, match="no t-tuple generates the group modulo N"):
        counting.phi_relative(lat, triv, 1)


def test_phi_relative_not_normal():
    lat = lattice("S:3")
    c2 = subgroups_of_order("S:3", 2)[0]
    with pytest.raises(NotNormal):
        counting.phi_relative(lat, c2, 2)
    # checked before generation modulo N, which fails at length 1 here
    with pytest.raises(NotNormal, match="relative count needs a normal subgroup"):
        counting.phi_quotient(lat, c2, 1)


def test_both_relative_routes_reject_a_non_normal_subgroup():
    # a lattice of its own, so that no relative count is memoized yet
    lat = enumerate_subgroups(group("S:3"))
    c2 = next(s for s in lat.subgroups if s.order == 2)
    with pytest.raises(NotNormal, match="relative count needs a normal subgroup"):
        lat.relative_exact(c2, 1)
    with pytest.raises(NotNormal, match="relative count needs a normal subgroup"):
        counting.phi_relative(lat, c2, 1)
    # and the refusal came before any count of N was kept
    assert not lat._exact


def test_phi_relative_via_classes_s4_v4():
    lat = lattice("S:4")
    G = lat.group
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(G, s.mask))
    expected = counting.phi_relative(lat, v4, 2)
    lifts = brute_lift(G, v4, 2)
    assert brute_lift_scan(lat, v4, lifts, 2) == expected
    for aut in ("1", "inn"):
        assert counting.phi_relative_via_classes(poset("S:4", aut), v4, 2) == expected
    # independence of the chosen lift over the same quotient tuple
    shifts = v4.elements()[1:3]
    lifts2 = tuple(G.mul(g, n) for g, n in zip(lifts, shifts))
    assert brute_lift_scan(lat, v4, lifts2, 2) == expected


def test_phi_relative_via_classes_errors():
    lat = lattice("S:4")
    G = lat.group
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(G, s.mask))
    pos = poset("S:4")
    # S4/V4 = S3 needs two generators
    with pytest.raises(LiftNotGenerating):
        counting.phi_relative_via_classes(pos, v4, 1)
    with pytest.raises(NotNormal):
        counting.phi_relative_via_classes(pos, subgroups_of_order("S:4", 2)[0], 2)
    # an action moving a normal subgroup is rejected
    lat2 = lattice("C:2xC:4")
    A = full_automorphism_group(lat2.group)
    pos2 = build_class_poset(lat2, A)
    moved = next(s for s in lat2.subgroups
                 if s.order == 2 and any(a.apply_mask(s.mask) != s.mask
                                         for a in A.maps))
    with pytest.raises(NotInvariant):
        counting.phi_relative_via_classes(pos2, moved, 2)
    with pytest.raises(NotInvariant):
        counting.omega_relative(pos2, pos2.top, moved, 2)


def normal_subgroup_cases(max_order):
    for spec in family_specs(max_order):
        lat = lattice(spec)
        for N in lat.subgroups:
            if is_normal_mask(lat.group, N.mask):
                yield spec, lat, N


def test_relative_counts_match_the_lift_scan():
    # for every invariant normal N with a lift: per class, the literal
    # scan over g_1N x .. x g_tN counts |orbit(c)| * relative_exact[rep_c]
    # tuples generating an orbit member of c, omega_relative sums it over
    # the classes below c, and the class-poset sum is the Hall sum
    for spec, lat, N in normal_subgroup_cases(24):
        for t in (1, 2):
            lifts = brute_lift(lat.group, N, t)
            assert (lifts is None) == (counting.phi_quotient(lat, N, t) == 0)
            if lifts is None:
                continue
            scan = brute_relative_counts(lat, N, lifts, t)
            exact = lat.relative_exact(N, t)
            value = counting.phi_relative(lat, N, t)
            for aut in ("1", "inn", "aut"):
                pos = poset(spec, aut)
                if len(pos.orbit(pos.class_of_subgroup(N))) != 1:
                    continue
                per_class = [0] * len(pos.classes)
                for mask, count in scan.items():
                    per_class[pos.class_of[lat.index[mask]]] += count
                rows = pos.rows()
                for c, (rep, orbit) in enumerate(pos.classes):
                    assert len(orbit) * exact[rep] == per_class[c], (spec, N.order, t, aut)
                    below = sum(per_class[d] for d in range(len(pos.classes))
                                if rows[d] >> c & 1)
                    assert counting.omega_relative(pos, c, N, t) == below
                assert counting.phi_relative_via_classes(pos, N, t) == value


def test_relative_checks_run_once_per_poset_and_subgroup(monkeypatch):
    # omega_relative over every class checks N once per (poset, N, t), and a
    # refused N is never kept as checked
    lifts = []
    original = counting.phi_quotient

    def counted(lat, N, t):
        lifts.append(t)
        return original(lat, N, t)

    monkeypatch.setattr(counting, "phi_quotient", counted)
    lat = lattice("S:4")
    v4 = next(s for s in subgroups_of_order("S:4", 4) if is_normal_mask(lat.group, s.mask))
    pos = build_class_poset(lat, full_automorphism_group(lat.group))
    for t in (1, 2, 2):
        try:
            [counting.omega_relative(pos, c, v4, t) for c in range(len(pos.classes))]
        except LiftNotGenerating:
            assert t == 1
    assert lifts == [1, 2]
    assert list(pos.downset_sums) == [("relative", v4.mask, 2)]
    c2 = subgroups_of_order("C:2xC:2xC:2", 2)[0]
    moved = poset("C:2xC:2xC:2", "aut")
    for _ in range(2):
        with pytest.raises(NotInvariant):
            counting.phi_relative_via_classes(moved, c2, 2)
    assert ("relative", c2.mask, 2) not in moved.downset_sums


def _counted_work(monkeypatch) -> dict:
    """From here on: the targets of every `first_generating_tuple` call,
    the number of `extend_closure` calls counting makes, and the
    (lattice, N, t) of every `phi_quotient` call that sums, one not yet
    in the lattice's memo."""
    work = {"searches": [], "steps": 0, "sums": []}
    search, extend, quotient = (counting.first_generating_tuple, counting.extend_closure,
                                counting.phi_quotient)

    def searched(G, target, t):
        work["searches"].append(target)
        return search(G, target, t)

    def stepped(*args):
        work["steps"] += 1
        return extend(*args)

    def summed(lat, N, t):
        if ("quotient", N.mask, t) not in lat._exact:
            work["sums"].append((lat, N.mask, t))
        return quotient(lat, N, t)

    monkeypatch.setattr(counting, "first_generating_tuple", searched)
    monkeypatch.setattr(counting, "extend_closure", stepped)
    monkeypatch.setattr(counting, "phi_quotient", summed)
    return work


def test_a_refused_lift_is_searched_once(monkeypatch):
    # C2^3 needs three generators, so with N = 1 and t = 2 every class's
    # relative omega is refused: the lattice keeps phi(G/N, 2) = 0, summed
    # once for the 16 classes, and no tuple is searched
    lat = enumerate_subgroups(group("C:2xC:2xC:2"))
    triv = lat.subgroups[lat.trivial_id]
    work = _counted_work(monkeypatch)
    for c in range(len(lat.conjugation)):
        with pytest.raises(LiftNotGenerating):
            counting.omega_relative(lat.conjugation, c, triv, 2)
    with pytest.raises(LiftNotGenerating):
        counting.phi_relative(lat, triv, 2)
    assert len(lat.conjugation) == 16 and work["sums"] == [(lat, triv.mask, 2)]
    assert work["searches"] == [] and work["steps"] == 0


def test_battery_searches_one_lift_per_normal_subgroup(monkeypatch):
    # verify checks both relative routes on S5's one minimal normal
    # subgroup, A5: one phi_quotient sum serves the two, and neither
    # searches a tuple
    work = _counted_work(monkeypatch)
    G = group("S:5")
    checks = run_battery(G, t_max=2, lattice=enumerate_subgroups(G))
    assert [c["name"] for c in checks if c["name"].startswith("phi-relative")] == \
        ["phi-relative-N60-t2"]
    assert len(work["sums"]) == 1 and work["sums"][0][2] == 2
    assert work["searches"] == [] and work["steps"] == 0


def test_relative_errors_come_in_the_cli_order():
    # NotNormal, then LiftNotGenerating, then NotInvariant
    lat = lattice("C:2xC:2xC:2")
    pos = poset("C:2xC:2xC:2", "aut")
    c2 = subgroups_of_order("C:2xC:2xC:2", 2)[0]
    # (C2)^3/C2 needs two generators, and Aut moves every C2
    with pytest.raises(LiftNotGenerating):
        counting.phi_relative_via_classes(pos, c2, 1)
    with pytest.raises(NotInvariant):
        counting.phi_relative_via_classes(pos, c2, 2)
    with pytest.raises(NotNormal):
        counting.phi_relative_via_classes(poset("S:3", "1"), subgroups_of_order("S:3", 2)[0], 1)
    assert counting.phi_relative(lat, c2, 2) == counting.phi_relative_via_classes(
        poset("C:2xC:2xC:2", "1"), c2, 2)


def test_generation_modulo_n_builds_no_quotient_group(monkeypatch):
    # phi_quotient decides generation modulo N by one sum over G's own
    # Moebius column, and both relative routes ask it; neither searches
    def refuse(*args):
        raise AssertionError("a quotient group was built")

    monkeypatch.setattr(counting, "quotient_group", refuse)
    work = _counted_work(monkeypatch)
    for spec, lat, N in normal_subgroup_cases(24):
        for t in (1, 2):
            if not counting.phi_quotient(lat, N, t):
                with pytest.raises(LiftNotGenerating):
                    counting.phi_relative(lat, N, t)
                continue
            value = counting.phi_relative(lat, N, t)
            assert counting.phi_relative_via_classes(poset(spec), N, t) == value


    assert work["searches"] == [] and work["steps"] == 0
    assert len(set(work["sums"])) == len(work["sums"])


def test_phi_quotient_matches_a_quotient_tuple_scan():
    for spec, lat, N in normal_subgroup_cases(24):
        G = lat.group
        Q, proj = quotient_group(G, N)
        for t in (1, 2):
            lifts = brute_lift(G, N, t)
            if lifts is None:
                assert counting.phi_quotient(lat, N, t) == 0
                with pytest.raises(LiftNotGenerating):
                    counting.phi_relative(lat, N, t)
                continue
            assert counting.phi_quotient(lat, N, t) > 0
            assert len(lifts) == t
            assert closure_mask(Q, [proj[g] for g in lifts]) == Q.full_mask(), (spec, N.order, t)


def test_phi_quotient_is_phi_of_the_quotient_lattice():
    # P. Hall's sum over G's Moebius column from N up equals the Hall sum
    # of G/N's own, independently enumerated lattice; and the generating
    # t-tuples of G are those of G/N times their lifts (Gaschuetz)
    for spec, lat, N in normal_subgroup_cases(24):
        quotient = enumerate_subgroups(quotient_group(lat.group, N)[0])
        for t in (1, 2, 3):
            value = counting.phi_quotient(lat, N, t)
            assert value == counting.phi_hall(quotient, t), (spec, N.order, t)
            if value:
                assert counting.phi_hall(lat, t) == value * counting.phi_relative(lat, N, t)


def test_a_refused_quotient_takes_no_closure_step(monkeypatch):
    # (A5 x C2^3)/A5 = C2^3 needs three generators: phi(C2^3, 2) = 0 is
    # read off G's Moebius column with no closure step, and
    # phi(C2^3, 3) = |GL(3, 2)| = 168
    work = _counted_work(monkeypatch)
    # a lattice of its own, so that nothing is kept on it yet
    lat = enumerate_subgroups(group("A:5xC:2xC:2xC:2"))
    a5 = [s for s in lat.subgroups if s.order == 60]
    assert len(a5) == 1 and is_normal_mask(lat.group, a5[0].mask)
    with pytest.raises(LiftNotGenerating):
        counting.phi_relative(lat, a5[0], 2)
    assert counting.phi_quotient(lat, a5[0], 3) == 168
    assert work["sums"] == [(lat, a5[0].mask, 2), (lat, a5[0].mask, 3)]
    assert work["searches"] == [] and work["steps"] == 0


# -- subgroup tuples -----------------------------------------------------------

def test_sigma_values():
    lat = lattice("A:5")
    assert lat.sigma(lat.top_id) == 59
    assert lat.sigma(lat.by_order[12][0]) == 10
    assert lat.sigma(lat.by_order[6][0]) == 6
    assert lat.sigma(lat.by_order[10][0]) == 8
    assert lat.sigma(lat.by_order[1][0]) == 1


def test_sigma_tuples_trivial_action_is_power():
    pos = poset("S:4", "1")
    lat = pos.lattice
    for c in range(len(pos.classes)):
        assert counting.sigma_tuples(pos, c, 2) == lat.sigma(c) ** 2


def test_gamma_tuples_inversion():
    """gamma counts sum to sigma over the down-set, and the top class
    count is phi* itself."""
    for spec in ("S:4", "A:5"):
        pos = poset(spec)
        for t in (1, 2):
            for c in range(len(pos.classes)):
                total = sum(counting.gamma_tuples(pos, k, t)
                            for k in range(len(pos.classes)) if pos.rows()[k] >> c & 1)
                assert total == counting.sigma_tuples(pos, c, t)
            assert counting.gamma_tuples(pos, pos.top, t) == \
                counting.phi_star(pos, t)


def test_omega_relative_supported_on_covering_classes():
    """omega_A(H,N,t) is nonzero exactly when HN = G."""
    lat = lattice("S:4")
    G = lat.group
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(G, s.mask))
    pos = poset("S:4")
    gorder = G.order
    for c in range(len(pos.classes)):
        om = counting.omega_relative(pos, c, v4, 2)
        covers = pos.rep(c).order * v4.order == \
            gorder * (pos.rep(c).mask & v4.mask).bit_count()
        assert (om > 0) == covers


def test_phi_star_is_one_at_t1():
    for spec in ("S:4", "A:5", "C:12", "Q:8", "D:7"):
        assert counting.phi_star_hall(lattice(spec), 1) == 1
        assert counting.phi_star(poset(spec), 1) == 1


def test_phi_star_a5_displayed_sum():
    # 1 = 59 - 5*10 - 10*6 - 6*8 + 2*10*2 + 4*15*2 - 60
    assert 59 - 5 * 10 - 10 * 6 - 6 * 8 + 2 * 10 * 2 + 4 * 15 * 2 - 60 == 1
    assert counting.phi_star_hall(lattice("A:5"), 1) == 1


@pytest.mark.parametrize("t", [1, 2])
def test_phi_star_identical_across_actions(t):
    for spec in ("S:4", "A:4", "Q:8"):
        expected = counting.phi_star_hall(lattice(spec), t)
        for aut in ("1", "inn", "aut"):
            assert counting.phi_star(poset(spec, aut), t) == expected


def test_phi_star_bruteforce():
    lat = lattice("S:3")
    for t in (1, 2):
        assert counting.phi_star_bruteforce(lat, t) == \
            counting.phi_star_hall(lat, t)
    lat4 = lattice("A:4")
    assert counting.phi_star_bruteforce(lat4, 2) == \
        counting.phi_star_hall(lat4, 2)
    for spec in family_specs(12):
        lat = lattice(spec)
        for t in (1, 2):
            assert counting.phi_star_bruteforce(lat, t) == counting.phi_star_hall(lat, t), \
                (spec, t)


@pytest.mark.parametrize("spec", ["S:4", "A:4", "C:12", "Q:8", "D:7", "S:3xC:2"])
def test_sum_mu_sigma_is_one(spec):
    lat = lattice(spec)
    assert sum(m * lat.sigma(i) for i, m in enumerate(lat.mu_top)) == 1


# -- probabilities --------------------------------------------------------------

@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_cyclic_prime_power_closed_forms(p, a, t):
    lat = lattice(f"C:{p ** a}")
    P, Pstar = counting.gen_probabilities(lat, t)
    assert P == 1 - Fraction(1, p ** t)
    assert Pstar == 1 - Fraction(a ** t, (a + 1) ** t)


def test_probability_trivial_case():
    P, Pstar = counting.gen_probabilities(lattice("C:2"), 1)
    assert P == Fraction(1, 2) and Pstar == Fraction(1, 2)


@pytest.mark.parametrize("spec", ["C:8", "C:9", "Q:8", "S:4", "C:12", "D:4"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_frattini_quotient_preserves_p(spec, t):
    lat = lattice(spec)
    qlat = counting.frattini_quotient_lattice(lat)
    assert counting.gen_probabilities(lat, t)[0] == \
        counting.gen_probabilities(qlat, t)[0]


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2)])
def test_pstar_differs_from_frattini_quotient(p, a):
    lat = lattice(f"C:{p ** a}")
    qlat = counting.frattini_quotient_lattice(lat)
    assert counting.gen_probabilities(lat, 1)[1] != \
        counting.gen_probabilities(qlat, 1)[1]


# -- the sweeps against the brute oracles --------------------------------------

def _check_sweeps(spec, auts):
    """sigma, phi_exact (t <= 3), gamma_exact, relative_exact and the
    down-set sums behind omega, sigma_tuples, psi and omega_relative equal
    `brute_exact_counts` over the pairwise relation, summed over the
    classes `brute_class_up` puts at or below each class, on the posets of
    spec under each action in auts (a poset of singleton classes is the
    pairwise relation itself)."""
    lat = lattice(spec)
    G = lat.group
    subs = lat.subgroups
    masks = [s.mask for s in subs]
    # the pairwise relation: the proper subgroups of each subgroup
    down = [[i for i in range(k) if not masks[i] & ~mask] for k, mask in enumerate(masks)]
    sigma = [len(below) + 1 for below in down]
    assert [lat.sigma(i) for i in range(len(lat))] == sigma, spec
    exact = {("phi", t): brute_exact_counts(down, [s.order for s in subs], t) for t in (1, 2, 3)}
    exact["gamma", 2] = brute_exact_counts(down, sigma, 2)
    for t in (1, 2, 3):
        assert lat.phi_exact(t) == exact["phi", t], (spec, t)
    assert lat.gamma_exact(2) == exact["gamma", 2], spec
    # characteristic N, so invariant under every action
    normals = {lat.index[commutator_subgroup(G).mask], lat.index[G.center_mask]}
    for n in normals:
        N = subs[n]
        sizes = [(mask & N.mask).bit_count() if product_covers(G, mask, N.mask) else 0
                 for mask in masks]
        exact["relative", n] = brute_exact_counts(down, sizes, 2)
        assert lat.relative_exact(N, 2) == exact["relative", n], spec
    for aut in auts:
        pos = poset(spec, aut)
        if pos.blocks is None:
            below = [[*ids, c] for c, ids in enumerate(down)]
        else:
            below = [[c] for c in range(len(pos))]
            for d, up in enumerate(brute_class_up(pos)):
                for c in up:
                    below[c].append(d)

        def summed(vals, c):
            return sum(len(pos.orbit(d)) * vals[pos.classes[d][0]] for d in below[c])

        lifted = []     # the N with a 2-tuple generating G modulo N
        for n in normals:
            try:
                counting.omega_relative(pos, pos.top, subs[n], 2)
                lifted.append(n)
            except LiftNotGenerating:
                pass
        for c in range(len(pos)):
            for t in (1, 2, 3):
                assert counting.omega(pos, c, t) == summed(exact["phi", t], c), (spec, aut, c)
            assert counting.sigma_tuples(pos, c, 2) == summed(exact["gamma", 2], c)
            assert sum(counting.psi(pos, d, 2) for d in below[c]) == summed(exact["phi", 2], c)
            for n in lifted:
                assert counting.omega_relative(pos, c, subs[n], 2) == \
                    summed(exact["relative", n], c), (spec, aut, c, n)


def test_sweeps_match_brute_oracles_up_to_order_24():
    for spec in family_specs(24):
        _check_sweeps(spec, ("inn", "1", "aut"))


def test_sweeps_match_brute_oracles_on_c2_6():
    # 2825 singleton classes, whose rows are made when read, and the seven
    # classes of subspaces of one dimension under full Aut
    _check_sweeps("C:2xC:2xC:2xC:2xC:2xC:2", ("inn", "aut"))
