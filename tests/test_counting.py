import itertools
import warnings
from fractions import Fraction

import pytest

from helpers import (class_by, closure_mask, group, lattice, omega_inclusion_exclusion,
                     poset, subgroups_of_order)
from moebius import counting
from moebius.automorphisms import full_automorphism_group
from moebius.classposet import build_class_poset
from moebius.errors import BudgetExceeded, LiftNotGenerating, NotInvariant, NotNormal
from moebius.groups import is_normal_mask


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


def test_omega_examples():
    pos = poset("S:4")
    s3 = class_by(pos, order=6)
    assert counting.omega(pos, s3, 1) == 15
    d5 = class_by(poset("A:5"), order=10)
    assert counting.omega(poset("A:5"), d5, 2) == 550


def test_omega_trivial_action_is_power():
    pos = poset("S:4", "1")
    for c in range(len(pos.classes)):
        assert counting.omega(pos, c, 2) == pos.rep_order(c) ** 2


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
            assert om == pos.rep_order(c) ** 2
        else:
            assert om > pos.rep_order(c) ** 2


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
                            for k in range(len(pos.classes)) if pos.leq(k, c))
                assert total == counting.omega(pos, c, t)


def test_phi_exact_against_interval_moebius():
    lat = lattice("S:4")
    pos = poset("S:4", "1")
    phi2 = lat.phi_exact(2)
    for i, s in enumerate(lat.subgroups):
        direct = s.order ** 2 + sum(pos.mu(j, i) * lat.subgroups[j].order ** 2
                                    for j in lat.down[i])
        assert phi2[i] == direct


def test_phi_exact_of_whole_group_is_phi():
    lat = lattice("S:4")
    for t in (1, 2, 3):
        assert lat.phi_exact(t)[lat.top_id] == counting.phi_hall(lat, t)


# -- relative counts ----------------------------------------------------------

def brute_lift_scan(lat, N, lifts, t):
    G = lat.group
    full = G.full_mask()
    count = 0
    for ns in itertools.product(N.elements(), repeat=t):
        gens = [G.mul(g, x) for g, x in zip(lifts, ns)]
        if closure_mask(G, gens) == full:
            count += 1
    return count


def test_phi_relative_s3():
    lat = lattice("S:3")
    c3 = subgroups_of_order("S:3", 3)[0]
    # a single element never generates S3: the relative count at t=1 is 0
    assert counting.phi_relative(lat, c3, 1) == 0
    lifts = counting.generating_lift(lat, c3, 1)
    assert brute_lift_scan(lat, c3, lifts, 1) == 0
    assert counting.phi_relative(lat, c3, 2) == 6
    lifts = counting.generating_lift(lat, c3, 2)
    assert brute_lift_scan(lat, c3, lifts, 2) == 6
    assert counting.phi_relative_via_classes(poset("S:3"), c3, lifts, 2) == 6


def test_phi_relative_endpoints():
    lat = lattice("S:4")
    full = lat.subgroups[lat.top_id]
    for t in (1, 2):
        assert counting.phi_relative(lat, full, t) == counting.phi_hall(lat, t)
    triv = lat.subgroups[lat.trivial_id]
    assert counting.phi_relative(lat, triv, 2) == 1


def test_phi_relative_warns_when_quotient_needs_more_generators():
    lat = lattice("C:2xC:2")
    triv = lat.subgroups[lat.trivial_id]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert counting.phi_relative(lat, triv, 1) == 0
    assert any("generators" in str(w.message) for w in caught)


def test_phi_relative_not_normal():
    lat = lattice("S:3")
    c2 = subgroups_of_order("S:3", 2)[0]
    with pytest.raises(NotNormal):
        counting.phi_relative(lat, c2, 2)


def test_phi_relative_via_classes_s4_v4():
    lat = lattice("S:4")
    G = lat.group
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(G, s.mask))
    expected = counting.phi_relative(lat, v4, 2)
    lifts = counting.generating_lift(lat, v4, 2)
    assert brute_lift_scan(lat, v4, lifts, 2) == expected
    for aut in ("1", "inn"):
        assert counting.phi_relative_via_classes(poset("S:4", aut), v4,
                                                 lifts, 2) == expected
    # independence of the chosen lift over the same quotient tuple
    shifts = v4.elements()[1:3]
    lifts2 = tuple(G.mul(g, n) for g, n in zip(lifts, shifts))
    assert counting.phi_relative_via_classes(poset("S:4"), v4, lifts2, 2) == expected


def test_phi_relative_via_classes_errors():
    lat = lattice("S:4")
    G = lat.group
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(G, s.mask))
    pos = poset("S:4")
    with pytest.raises(LiftNotGenerating):
        counting.phi_relative_via_classes(pos, v4, (G.identity, G.identity), 2)
    # an action moving a normal subgroup is rejected
    lat2 = lattice("C:2xC:4")
    A = full_automorphism_group(lat2.group)
    pos2 = build_class_poset(lat2, A)
    moved = next(s for s in lat2.subgroups
                 if s.order == 2 and any(a.apply_mask(s.mask) != s.mask
                                         for a in A.maps))
    lifts = counting.generating_lift(lat2, moved, 2)
    with pytest.raises(NotInvariant):
        counting.phi_relative_via_classes(pos2, moved, lifts, 2)


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
                            for k in range(len(pos.classes)) if pos.leq(k, c))
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
    lifts = counting.generating_lift(lat, v4, 2)
    gorder = G.order
    for c in range(len(pos.classes)):
        om = counting.omega_relative(pos, c, v4, lifts, 2)
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
