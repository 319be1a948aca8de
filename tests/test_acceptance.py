"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The PSU(3,3), M11
and A:8 targets are marked `stretch` and excluded from the default
profile (enable with `pytest -m stretch`).
"""

import time
from fractions import Fraction

import pytest

import moebius.lattice as lattice_module
from helpers import PSU33_SPEC, class_by, group, lattice, poset
from moebius import counting
from moebius.automorphisms import (full_automorphism_group, inner_automorphisms,
                                   trivial_automorphisms)
from moebius.catalog import family_specs
from moebius.classposet import (build_class_poset, crapo_check_all,
                                maximal_closure_map, nonzero_implies_closed)
from moebius.groups import (build_from_spec, commutator_subgroup, is_solvable,
                            is_nilpotent, is_normal_mask)
from moebius.lattice import enumerate_subgroups
from moebius.mulambda import MuLambdaAnalyzer


def _verdict(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail} "
          f"({elapsed:.1f}s, budget {budget}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


# -- criterion 1: S4 table ---------------------------------------------------

def test_criterion_1_s4_table():
    t0 = time.time()
    from collections import Counter
    pos = poset("S:4")
    pairs = Counter((pos.mu_top[c], counting.omega(pos, c, 1))
                    for c in range(len(pos.classes)))
    expected = Counter([(1, 24), (-1, 12), (-1, 16), (-1, 15), (1, 4), (0, 10),
                        (1, 9), (1, 7), (0, 4), (-1, 1)])
    # every reference row appears; the one class beyond the reference list is
    # the non-normal four-group, with lambda 0 and union size 10
    ok = pairs - expected == Counter({(0, 10): 1}) and not expected - pairs
    G = pos.lattice.group
    four_groups = [c for c in range(len(pos.classes))
                   if pos.rep(c).order == 4
                   and all(G.element_orders[x] == 2 for x in pos.rep(c).elements()
                           if x != G.identity)]
    nonnormal_v4 = [c for c in four_groups
                    if not is_normal_mask(G, pos.rep(c).mask)]
    ok = ok and len(nonnormal_v4) == 1 and pos.mu_top[nonnormal_v4[0]] == 0
    _verdict(1, ok, "S4 (lambda, union-size) pairs match the reference rows", t0, 1)


# -- criterion 2: A5 tables + phi(A5,2) ---------------------------------------

def test_criterion_2_a5_tables():
    t0 = time.time()
    lat = lattice("A:5")
    pos = poset("A:5")
    lam_rows = {60: (1, 60, 3600), 12: (-1, 36, 636), 6: (-1, 36, 306),
                10: (-1, 40, 550), 3: (1, 21, 81), 2: (2, 16, 46), 1: (-1, 1, 1)}
    ok = True
    for order, (lam, om1, om2) in lam_rows.items():
        c = class_by(pos, order=order)
        ok = ok and pos.mu_top[c] == lam
        ok = ok and counting.omega(pos, c, 1) == om1
        ok = ok and counting.omega(pos, c, 2) == om2
    mu_rows = {60: (1, 1, 59), 12: (-1, 5, 10), 6: (-1, 10, 6), 10: (-1, 6, 8),
               3: (2, 10, 2), 2: (4, 15, 2), 1: (-60, 1, 1)}
    from moebius.classposet import kappa
    for order, (mu, kap, sig) in mu_rows.items():
        rep_id = pos.classes[class_by(pos, order=order)][0]
        ok = ok and lat.mu_top[rep_id] == mu
        ok = ok and kappa(lat, lat.subgroups[rep_id]) == kap
        ok = ok and lat.sigma(rep_id) == sig
    ok = ok and lat.sigma(lat.top_id) == 59
    phis = (counting.phi_hall(lat, 2),
            counting.phi_via_classes(pos, 2),
            counting.phi_bruteforce(lat.group, 2))
    ok = ok and phis == (2280, 2280, 2280)
    _verdict(2, ok, f"A5 tables and phi(A5,2)={phis[0]} by all three methods", t0, 30)


# -- criteria 3 + 9: zero sums, Crapo, closedness over (G, A) pairs ------------

_sweep_cache = {}


def _actions(G, lat):
    named = [trivial_automorphisms(G), inner_automorphisms(G)]
    derived = commutator_subgroup(G)
    for s in lat.subgroups:
        if derived.mask & ~s.mask == 0:
            named.append(inner_automorphisms(G, s))
    if G.order <= 64:
        named.append(full_automorphism_group(G))
    distinct = {}
    for a in named:
        distinct.setdefault(frozenset(b.map for b in a.maps), a)
    return list(distinct.values())


def _criteria_3_9_data():
    if _sweep_cache:
        return _sweep_cache
    zero_sums = []
    crapo_bad = []
    closed_bad = []
    pairs = 0
    for spec in family_specs(24):
        G = build_from_spec(spec)
        if G.is_cyclic():
            continue
        lat = enumerate_subgroups(G)
        for aut in _actions(G, lat):
            pos = build_class_poset(lat, aut)
            pairs += 1
            total = sum(pos.mu_top[c] * counting.omega(pos, c, 1)
                        for c in range(len(pos.classes)))
            if total != 0:
                zero_sums.append((spec, aut.origin, total))
            cl = maximal_closure_map(pos)
            if crapo_check_all(pos, cl):
                crapo_bad.append((spec, aut.origin))
            if nonzero_implies_closed(pos, cl):
                closed_bad.append((spec, aut.origin))
    _sweep_cache.update(zero_sums=zero_sums, crapo_bad=crapo_bad,
                        closed_bad=closed_bad, pairs=pairs)
    return _sweep_cache


def test_criterion_3_zero_sums_up_to_24():
    t0 = time.time()
    data = _criteria_3_9_data()
    _verdict(3, not data["zero_sums"],
             f"sum mu_A * omega_A(.,1) = 0 over {data['pairs']} (G, A) pairs",
             t0, 300)


def test_criterion_9_crapo_and_closedness():
    t0 = time.time()
    data = _criteria_3_9_data()
    ok = not data["crapo_bad"] and not data["closed_bad"]
    _verdict(9, ok,
             f"closure-theorem sums and nonzero=>closed over {data['pairs']} "
             f"(G, A) pairs", t0, 300)


# -- criterion 4: triple agreement up to order 24 ------------------------------

def test_criterion_4_triple_agreement():
    t0 = time.time()
    bad = []
    count = 0
    for spec in family_specs(24):
        G = build_from_spec(spec)
        lat = enumerate_subgroups(G)
        posets = [build_class_poset(lat, a) for a in _actions(G, lat)]
        for t in (1, 2, 3):
            hall = counting.phi_hall(lat, t)
            brute = counting.phi_bruteforce(G, t)
            vias = [counting.phi_via_classes(p, t) for p in posets]
            count += 1
            if not all(v == hall for v in [brute] + vias):
                bad.append((spec, t, hall, brute, vias))
    _verdict(4, not bad, f"phi agreement (hall = brute = classes, every A) "
             f"on {count} (group, t) pairs", t0, 300)


# -- criterion 5: sum mu * sigma = 1 up to order 48 -----------------------------

def test_criterion_5_mu_sigma_sum():
    t0 = time.time()
    bad = []
    specs = family_specs(48)
    for spec in specs:
        G = build_from_spec(spec)
        lat = enumerate_subgroups(G)
        total = sum(m * lat.sigma(i) for i, m in enumerate(lat.mu_top) if m)
        if total != 1:
            bad.append((spec, total))
    _verdict(5, not bad, f"sum mu(H,G) sigma(H) = 1 on {len(specs)} groups",
             t0, 300)


# -- criterion 6: lambda = mu_{inner-by-K} for solvable groups up to 48 ---------

def test_criterion_6_inner_by_k_matches_lambda():
    t0 = time.time()
    bad = []
    checked = 0
    for spec in family_specs(48):
        G = build_from_spec(spec)
        if not is_solvable(G):
            continue
        lat = enumerate_subgroups(G)
        lam = build_class_poset(lat, inner_automorphisms(G))
        lam_col = [lam.mu_top[lam.class_of[i]] for i in range(len(lat.subgroups))]
        derived = commutator_subgroup(G)
        by_key = {}
        for K in lat.subgroups:
            if derived.mask & ~K.mask:
                continue
            aut = inner_automorphisms(G, K)
            key = frozenset(a.map for a in aut.maps)
            checked += 1
            if key in by_key:
                ok = by_key[key]
            else:
                pos = build_class_poset(lat, aut)
                ok = all(pos.mu_top[pos.class_of[i]] == lam_col[i]
                         for i in range(len(lat.subgroups)))
                by_key[key] = ok
            if not ok:
                bad.append((spec, K.order))
    # the worked example: A4 with A = inner-by-V4 splits the order-2
    # subgroups into three classes yet matches lambda everywhere
    latA4 = lattice("A:4")
    v4 = latA4.subgroups[latA4.by_order[4][0]]
    posA = build_class_poset(latA4, inner_automorphisms(latA4.group, v4))
    split = len([c for c in range(len(posA.classes)) if posA.rep(c).order == 2])
    ok = not bad and split == 3
    _verdict(6, ok, f"lambda = mu_(inner-by-K) over {checked} (G, K) pairs",
             t0, 600)


# -- criterion 7: the (mu,lambda)-property ---------------------------------------

def test_criterion_7_property_sweep():
    t0 = time.time()
    bad = []
    count = 0
    for spec in family_specs(100):
        G = build_from_spec(spec)
        if not is_solvable(G):
            continue
        count += 1
        if not MuLambdaAnalyzer(G).report().passed:
            bad.append(spec)
    for spec in ("A:5", "S:5", "A:6"):
        count += 1
        if not MuLambdaAnalyzer(group(spec), lattice(spec)).report().passed:
            bad.append(spec)
    _verdict(7, not bad, f"(mu,lambda)-property holds on {count} groups "
             f"(solvable <= 100 plus A5, S5, A6)", t0, 900)


# -- criterion 8: beta vectors ----------------------------------------------------

def test_criterion_8_beta_vectors():
    t0 = time.time()
    an = MuLambdaAnalyzer(group("A:5"), lattice("A:5"))
    by_order = {12: (24, 84, 264, 804, 2424, 7284),
                6: (24, 54, 114, 234, 474, 954),
                10: (20, 50, 110, 230, 470, 950),
                3: (39, 99, 279, 819, 2439, 7299),
                2: (44, 74, 134, 254, 494, 974),
                1: (59, 59, 59, 59, 59, 59)}
    ok = True
    for t in range(1, 7):
        vec = an.beta_vector(t)
        for c, entry in zip(vec.class_ids, vec.entries):
            ok = ok and entry == by_order[an.poset.rep(c).order][t - 1]
    ok = ok and an.beta_span_rank(6) == 3
    an3 = MuLambdaAnalyzer(group("S:3"), lattice("S:3"))
    for t in range(1, 6):
        ok = ok and an3.beta_vector(t).entries == (0, 2, 2)
    for spec in ("C:12", "Q:8", "C:2xC:2xC:2", "C:16", "Q:8xC:3"):
        G = build_from_spec(spec)
        assert is_nilpotent(G)
        an_n = MuLambdaAnalyzer(G)
        for t in (1, 2, 3):
            ok = ok and set(an_n.beta_vector(t).entries) <= {0}
    _verdict(8, ok, "A5 beta vectors (t=1..6, rank 3), S3 constant (0,2,2), "
             "nilpotent zero vectors", t0, 60)


# -- criterion 10: cyclic prime-power closed forms ---------------------------------

def test_criterion_10_probability_closed_forms():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        for a in (2, 3):
            lat = enumerate_subgroups(build_from_spec(f"C:{p ** a}"))
            for t in (1, 2, 3):
                P, Pstar = counting.gen_probabilities(lat, t)
                ok = ok and P == 1 - Fraction(1, p ** t)
                ok = ok and Pstar == 1 - Fraction(a ** t, (a + 1) ** t)
    checked = 0
    for spec in family_specs(20) + ["S:4", "C:27", "D:12", "Q:8xC:2"]:
        lat = enumerate_subgroups(build_from_spec(spec))
        qlat = counting.frattini_quotient_lattice(lat)
        for t in (1, 2, 3):
            checked += 1
            ok = ok and counting.gen_probabilities(lat, t)[0] == \
                counting.gen_probabilities(qlat, t)[0]
    _verdict(10, ok, f"P and P* closed forms; P(G,t) = P(G/Phi,t) on "
             f"{checked} (group, t) pairs", t0, 60)


# -- criterion 11 (stretch): PSU(3,3) ----------------------------------------------

@pytest.mark.stretch
def test_criterion_11_psu33():
    t0 = time.time()
    G = build_from_spec(PSU33_SPEC)
    assert G.order == 6048
    an = MuLambdaAnalyzer(G)
    lat = an.lattice
    # lattice sanity: 5150 subgroups in 36 classes, maximal subgroups of
    # index 28, 36, 63, 63, and the whole-lattice identities
    assert len(lat) == 5150
    assert sum(m * lat.sigma(i) for i, m in enumerate(lat.mu_top) if m) == 1
    assert counting.phi_hall(lat, 1) == 0
    assert counting.phi_via_classes(an.poset, 1) == 0
    assert sorted(G.order // lat.subgroups[m].order for m in lat.maximals) \
        == [28] * 28 + [36] * 36 + [63] * 126
    # Inn(G) acts by its two generator maps, never by 6048 element maps
    inner = build_class_poset(lat, inner_automorphisms(G))
    assert len(an.poset.classes) == 36 and inner.classes == an.poset.classes
    # phi(G,2) certified against an independent conjugacy-weighted literal
    # generation scan (see the build notes): 33675264 ordered pairs
    assert counting.phi_hall(lat, 2) == 33675264
    assert counting.phi_via_classes(an.poset, 2) == 33675264
    report = an.report()
    viol = {(r.mu, r.mu_star, r.order, r.normalizer_order)
            for r in report.rows if not r.ok}
    # the reference rows carry mu and mu* transposed: the lattice recursion
    # (certified by the identities above) has no freedom and puts mu = 0 on
    # the order-2 class and mu = -4 on the order-8 one
    expected = {(0, -48, 2, 96), (0, 3, 6, 18), (-4, 0, 8, 32), (2, 1, 24, 24)}
    reference = {(-48, 0, 2, 96), (3, 0, 6, 18), (0, -4, 8, 32), (1, 2, 24, 24)}
    ok = not report.passed and viol == expected
    ok = ok and {(ms, m, o, n) for m, ms, o, n in viol} == reference
    # the restricted zero-sum reduces to the exponential identity
    # 2^(t-1) - 6^(t-1) - 8^(t-1) + 24^(t-1), which vanishes only at t = 1
    for t in range(1, 5):
        z = an.zero_sum_check(t)
        ok = ok and z.consistent and (z.is_zero == (t == 1))
        ok = ok and z.violation_sum == (2 ** (t - 1) - 6 ** (t - 1)
                                        - 8 ** (t - 1) + 24 ** (t - 1))
    # tau spectrum: nonzero at each violating order (evidence hook only)
    ok = ok and an.tau_spectrum() == {2: Fraction(1, 2), 6: Fraction(-1, 6),
                                      8: Fraction(-1, 8), 24: Fraction(1, 24)}
    _verdict(11, ok, "PSU(3,3) fails in exactly the four reference classes "
             "(modulo their transposed mu columns); the restricted identity "
             "vanishes only at t=1", t0, 1800)


# -- criterion 12 (stretch): M11 -----------------------------------------------

# The Mathieu group M11 (order 7920) on 11 points, from its standard pair
# of generators: an 11-cycle and an element of order 4
M11_SPEC = "perm:[(1,2,3,4,5,6,7,8,9,10,11);(3,7,11,8)(4,10,5,6)]"


@pytest.mark.stretch
def test_criterion_12_m11(monkeypatch):
    t0 = time.time()
    G = build_from_spec(M11_SPEC)
    assert G.order == 7920
    # M11 has more zuppos of orders 5 (396) than of 3 (220) and 11 (144),
    # so second-test joins drop pi = {2, 5}, not {2, 3}
    dropped = []
    drop = lattice_module._dropped_primes
    monkeypatch.setattr(lattice_module, "_dropped_primes",
                        lambda primes: dropped.append(drop(primes)) or dropped[-1])
    an = MuLambdaAnalyzer(G)
    lat = an.lattice
    assert dropped == [{2, 5}]
    # the published counts: 8651 subgroups in 39 conjugacy classes, and the
    # five classes of maximal subgroups M10, L2(11), M9:2, S5 and M8:S3 of
    # index 11, 12, 55, 66 and 165, each self-normalizing (index conjugates)
    ok = len(lat) == 8651 and len(an.poset.classes) == 39
    ok = ok and sorted(G.order // lat.subgroups[m].order for m in lat.maximals) \
        == [11] * 11 + [12] * 12 + [55] * 55 + [66] * 66 + [165] * 165
    ok = ok and sum(m * lat.sigma(i) for i, m in enumerate(lat.mu_top) if m) == 1
    ok = ok and counting.phi_hall(lat, 2) == 51305760
    ok = ok and counting.phi_via_classes(an.poset, 2) == 51305760
    _verdict(12, ok, "M11: 8651 subgroups in 39 classes, maximal indices "
             "11, 12, 55, 66, 165, phi(G,2) = 51305760 by Hall and by classes",
             t0, 600)


# -- criterion 13 (stretch): A:8 -----------------------------------------------

@pytest.mark.stretch
def test_criterion_13_a8():
    t0 = time.time()
    # at the default order cap, with no multiplication table
    G = build_from_spec("A:8")
    assert G.order == 20160
    an = MuLambdaAnalyzer(G)
    lat = an.lattice
    # 48337 subgroups in 137 classes; the maximal subgroups A7, two classes
    # of 2^3:L3(2), S6, 2^4:(S3xS3) and (A5x3):2, of index 8, 15, 15, 28,
    # 35 and 56, each self-normalizing (index conjugates)
    ok = len(lat) == 48337 and len(an.poset.classes) == 137
    ok = ok and sorted(G.order // lat.subgroups[m].order for m in lat.maximals) \
        == [8] * 8 + [15] * 30 + [28] * 28 + [35] * 35 + [56] * 56
    ok = ok and sum(m * lat.sigma(i) for i, m in enumerate(lat.mu_top) if m) == 1
    ok = ok and counting.phi_hall(lat, 2) == 300303360
    ok = ok and counting.phi_via_classes(an.poset, 2) == 300303360
    ok = ok and G._table is None
    _verdict(13, ok, "A:8: 48337 subgroups in 137 classes, maximal indices "
             "8, 15, 15, 28, 35, 56, phi(G,2) = 300303360 by Hall and by classes",
             t0, 600)


# -- criterion 14 (stretch): S:8 -----------------------------------------------

@pytest.mark.stretch
def test_criterion_14_s8():
    t0 = time.time()
    # over the default order cap, so with the cap raised to |S_8|
    G = build_from_spec("S:8", cap=40320)
    assert G.order == 40320
    lat = enumerate_subgroups(G)
    # 151221 subgroups in 296 conjugacy classes (OEIS A005432, A000638)
    ok = len(lat) == 151221 and len(lat.conjugation.classes) == 296
    ok = ok and sum(m * lat.sigma(i) for i, m in enumerate(lat.mu_top) if m) == 1
    _verdict(14, ok, "S:8: 151221 subgroups in 296 classes, sum mu(H,G) sigma(H) = 1",
             t0, 300)
