import random

import pytest

import moebius.verify as verify_module

from helpers import (action, brute_class_up, brute_mu_top, class_by, group, lattice, poset,
                     recursive_mu, subgroups_of_order, summed_columns)
from moebius import counting, enumerate_subgroups
from moebius.automorphisms import (AutomorphismGroup, full_automorphism_group,
                                   inner_automorphisms, trivial_automorphisms)
from moebius.cache import load_lattice, save_lattice
from moebius.catalog import family_specs
from moebius.classposet import (ClassPoset, build_class_poset, complement_class_count,
                                conjugation_poset, conjunctive_identity_violations,
                                crapo_check_all, divisibility_scan, kappa,
                                maximal_closure_map, minimal_normal_subgroup_ids,
                                nonzero_implies_closed, validate_closure_map)
from moebius.errors import NotAClosureMap
from moebius.groups import (bits, is_normal_mask, product_mask, quotient_group,
                            subgroup_image_mask)
from moebius.lattice import mu_column
from moebius.automorphisms import induced_quotient_action
from moebius.verify import (automorphism_choices, mobius_equation_violations,
                            poset_axiom_violations)


@pytest.mark.parametrize("source", ["enumerated", "cached"])
@pytest.mark.parametrize("spec", ["S:5", "A:6", "D:12xC:2", "Q:8xS:3", "C:2xC:4xC:4"])
def test_inner_poset_reads_the_conjugacy_classes(spec, source, tmp_path):
    # under all of Inn(G) the classes are read from the lattice, kept by
    # the class walks that built it, fresh or cached (singletons when G is
    # abelian, as C:2xC:4xC:4 is); they equal the orbits walked over the
    # generators' conjugation maps, and any other origin still walks the
    # orbits of its generators
    lat = lattice(spec)
    if source == "cached":
        save_lattice(lat, tmp_path)
        lat = load_lattice(group(spec), tmp_path)
    G = lat.group
    inner = inner_automorphisms(G)
    walked = lat.orbits([a.map for a in inner.gens])
    pos = build_class_poset(lat, inner)
    assert (pos.classes, pos.class_of) == walked
    assert pos is lat.conjugation
    same_gens = AutomorphismGroup(G, inner.gens, "explicit-generated")
    other = build_class_poset(lat, same_gens)
    assert (other.classes, other.class_of) == walked
    assert other.classes is not lat.conjugation.classes


@pytest.mark.parametrize("spec", family_specs(24) + ["S:6", "A:7"])
def test_lattice_keeps_one_conjugation_poset(spec):
    # the lattice's class relation is its conjugation poset: every route to
    # the poset under Inn(G) returns that one object, the down-set sums it
    # keeps hold one entry per class, and a poset walked over the same
    # generator maps under another origin orders the same classes alike and
    # sums the same down-sets
    lat = lattice(spec)
    G = lat.group
    inner = inner_automorphisms(G)
    conj = lat.conjugation
    assert conjugation_poset(lat) is build_class_poset(lat, inner) is conj
    walked = build_class_poset(lat, AutomorphismGroup(G, inner.gens, "explicit-generated"))
    assert walked is not conj
    assert walked.classes == conj.classes and walked.blocks == conj.blocks
    assert list(walked.rows()) == list(conj.rows())
    assert walked.mu_top == conj.mu_top
    classes = range(len(conj))
    for t in (1, 2):
        assert [counting.omega(walked, c, t) for c in classes] == \
            [counting.omega(conj, c, t) for c in classes]
    assert {("phi", 1), ("phi", 2)} <= set(conj.downset_sums)
    assert all(len(sums) == len(conj) for sums in conj.downset_sums.values())


def test_trivial_action_poset_mirrors_lattice():
    lat = lattice("S:4")
    pos = poset("S:4", "1")
    assert len(pos.classes) == len(lat)
    assert pos.mu_top == lat.mu_top
    assert all(len(pos.orbit(c)) == 1 for c in range(len(pos.classes)))


def test_s4_lambda_table():
    """Reference S4 values: lambda and the union-of-conjugates size per class."""
    pos = poset("S:4")
    assert len(pos.classes) == 11
    expected = {
        # (order, normal): (lambda, omega1)
        (24, True): (1, 24),
        (12, True): (-1, 12),
        (8, False): (-1, 16),
        (6, False): (-1, 15),
        (4, True): (1, 4),     # the normal four-group K
        (3, False): (1, 9),
        (1, True): (-1, 1),
    }
    for (order, normal), (lam, om) in expected.items():
        c = class_by(pos, order=order, normal=normal)
        assert pos.mu_top[c] == lam
        assert counting.omega(pos, c, 1) == om
    # two order-2 classes, told apart by their values
    c_t = class_by(pos, order=2, lam=1)
    assert counting.omega(pos, c_t, 1) == 7
    c_dt = class_by(pos, order=2, lam=0)
    assert counting.omega(pos, c_dt, 1) == 4
    # two lambda = 0 classes of order 4 (C4 and the non-normal four-group),
    # both with union size 10
    zeros = [c for c in range(len(pos.classes))
             if pos.rep(c).order == 4 and pos.mu_top[c] == 0]
    assert len(zeros) == 2
    assert all(counting.omega(pos, c, 1) == 10 for c in zeros)
    # the displayed zero-sum
    total = sum(pos.mu_top[c] * counting.omega(pos, c, 1)
                for c in range(len(pos.classes)))
    assert total == 24 - 12 - 16 - 15 + 4 + 9 + 7 - 1 == 0


def test_a5_lambda_table_with_omega2():
    pos = poset("A:5")
    assert len(pos.classes) == 9
    rows = {
        60: (1, 60, 3600),
        12: (-1, 36, 636),
        6: (-1, 36, 306),
        10: (-1, 40, 550),
        3: (1, 21, 81),
        2: (2, 16, 46),
        1: (-1, 1, 1),
    }
    for order, (lam, om1, om2) in rows.items():
        c = class_by(pos, order=order)
        assert pos.mu_top[c] == lam
        assert counting.omega(pos, c, 1) == om1
        assert counting.omega(pos, c, 2) == om2
    for order in (4, 5):
        assert pos.mu_top[class_by(pos, order=order)] == 0
    assert sum(pos.mu_top[c] * counting.omega(pos, c, 1)
               for c in range(9)) == 60 - 36 - 36 - 40 + 21 + 2 * 16 - 1 == 0


def test_a5_mu_kappa_sigma_table():
    lat = lattice("A:5")
    pos = poset("A:5")
    rows = {
        60: (1, 1, 59),
        12: (-1, 5, 10),
        6: (-1, 10, 6),
        10: (-1, 6, 8),
        3: (2, 10, 2),
        2: (4, 15, 2),
        1: (-60, 1, 1),
    }
    for order, (mu, kap, sig) in rows.items():
        c = class_by(pos, order=order)
        rep_id = pos.classes[c][0]
        assert lat.mu_top[rep_id] == mu
        assert kappa(lat, lat.subgroups[rep_id]) == kap
        assert lat.sigma(rep_id) == sig


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_dihedral_table(p):
    pos = poset(f"D:{p}")
    assert len(pos.classes) == 4
    vals = {2 * p: (1, 2 * p), p: (-1, p), 2: (-1, p + 1)}
    for order, (lam, om) in vals.items():
        c = class_by(pos, order=order)
        assert pos.mu_top[c] == lam
        assert counting.omega(pos, c, 1) == om
    # lambda(1, G) is forced to +1: the zero-sum needs 2p - p - (p+1) + 1 = 0
    # and mu(1,G) = p = |G'| * lambda(1,G)
    assert pos.mu_top[pos.bottom] == 1
    lat = lattice(f"D:{p}")
    assert lat.mu_top[lat.trivial_id] == p


def test_abelian_lambda_equals_mu_classwise():
    for spec in ["C:12", "C:2xC:4", "C:2xC:2xC:2"]:
        lat = lattice(spec)
        pos = poset(spec)
        assert len(pos.classes) == len(lat)
        assert pos.mu_top == lat.mu_top


def test_intro_example_a4_inner_by_v4():
    lat = lattice("A:4")
    pos_a = poset("A:4", ("inn", 4, 0))
    pos_l = poset("A:4")
    # three subgroups of order 2, conjugate in G but not A-conjugate
    assert len([c for c in range(len(pos_a.classes)) if pos_a.rep(c).order == 2]) == 3
    assert len([c for c in range(len(pos_l.classes)) if pos_l.rep(c).order == 2]) == 1
    # yet lambda(H, G) = mu_A(H, G) for every subgroup
    for i in range(len(lat.subgroups)):
        assert pos_l.mu_top[pos_l.class_of[i]] == pos_a.mu_top[pos_a.class_of[i]]


def test_kappa_values():
    lat = lattice("A:5")
    assert kappa(lat, subgroups_of_order("A:5", 2)[0]) == 15
    assert kappa(lat, subgroups_of_order("A:5", 12)[0]) == 5
    lat4 = lattice("S:4")
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(lat4.group, s.mask))
    assert kappa(lat4, v4) == 1


@pytest.mark.parametrize("spec,aut", [
    ("S:4", "inn"), ("S:4", "1"), ("S:4", "aut"), ("A:5", "inn"),
    ("A:4", ("inn", 4, 0)), ("Q:8", "inn"), ("C:12", "1"), ("D:7", "inn"),
])
def test_poset_axioms_and_mobius_equations(spec, aut):
    pos = poset(spec, aut)
    assert poset_axiom_violations(pos) == []
    assert mobius_equation_violations(pos) == []


def _fresh_s4_poset():
    """S4's conjugation poset on a lattice of its own, so that a planted
    row or map reaches no other test.  Its classes: 0 = 1, 4 = C4,
    7 = S3, 8 = D8, 10 = S4, with C4 < D8 < S4 the only chain from C4."""
    lat = enumerate_subgroups(group("S:4"))
    return build_class_poset(lat, inner_automorphisms(lat.group))


def test_poset_axioms_catch_a_missing_diagonal():
    # a class row that lacks its own class breaks reflexivity; the strict
    # up-sets read off the rows cannot show it
    pos = _fresh_s4_poset()
    pos.rows()[3] &= ~(1 << 3)
    assert poset_axiom_violations(pos) == ["reflexivity broken at 3"]


def test_poset_axioms_catch_a_broken_antisymmetry():
    # S4 planted at or below S3 makes the two classes each lie below the other
    pos = _fresh_s4_poset()
    assert (pos.rep(7).order, pos.top) == (6, 10)
    pos.rows()[10] |= 1 << 7
    bad = poset_axiom_violations(pos)
    assert [v for v in bad if v.startswith("antisymmetry")] == \
        ["antisymmetry broken at (7,10)", "antisymmetry broken at (10,7)"]


def test_poset_axioms_catch_a_broken_transitivity():
    # C4 <= D8 <= S4 with S4 struck from C4's row
    pos = _fresh_s4_poset()
    assert [pos.rep(c).order for c in bits(pos.rows()[4])] == [4, 8, 24]
    pos.rows()[4] &= ~(1 << 10)
    assert poset_axiom_violations(pos) == ["transitivity broken at (4,8,10)"]


def test_crapo_check_reports_a_broken_identity():
    # D8 (class 8) struck from the row of class 2, a C2, after its closure
    # map is taken: the closure sums at D8 and S4 break for classes 0 and 2
    pos = _fresh_s4_poset()
    cl = maximal_closure_map(pos)
    assert crapo_check_all(pos, cl) == []
    pos.rows()[2] &= ~(1 << 8)
    assert crapo_check_all(pos, cl) == [(0, 8), (2, 8), (0, 10), (2, 10)]


def test_conjunctive_identity_reports_a_planted_mu():
    # mu_A of class 1, a C2, flipped from 1 to -1 breaks the identity over
    # N = V4 at class 1 alone
    pos = _fresh_s4_poset()
    G = pos.lattice.group
    v4 = next(s for s in pos.lattice.subgroups if s.order == 4 and is_normal_mask(G, s.mask))
    assert conjunctive_identity_violations(pos, v4) == [] and pos.mu_top[1] == 1
    pos.mu_top[1] = -1
    assert conjunctive_identity_violations(pos, v4) == [1]


# Full Aut is built only for |G| <= 64.
@pytest.mark.parametrize("spec,aut", [
    (spec, aut)
    for spec in ("S:4", "D:12xC:2", "Q:8xS:3", "S:5", "A:6", "C:2xC:2xC:2xC:2")
    for aut in ("inn", "1", "aut")
    if aut != "aut" or spec in ("S:4", "D:12xC:2", "Q:8xS:3")
] + [("S:4", ("inn", 4, 0)), ("Q:8xS:3", ("inn", 4, 0)),
     ("C:2xC:2xC:2xC:2", "aut")])
def test_class_relation_matches_orbit_mask_scan(spec, aut):
    pos = poset(spec, aut)
    up = brute_class_up(pos)
    assert pos.up == up
    assert pos.mu_top == brute_mu_top(up, pos.top)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_full_aut_classes_of_elementary_abelian(n):
    # GL(n,2) is transitive on the subspaces of each dimension of C:2^n, so
    # the class poset has one class per dimension; |GL(6,2)| is about 2e10,
    # so the full list of maps must never be closed
    spec = "x".join(["C:2"] * n)
    A = full_automorphism_group(group(spec))
    assert len(build_class_poset(lattice(spec), A).classes) == n + 1
    assert A._maps is None


def test_automorphism_choices_leave_full_aut_unclosed(monkeypatch):
    # GL(5,2) has about 1e7 maps; on the abelian C:2^5 every inner action
    # is trivial, and full Aut, having a generator that is no conjugation,
    # gets a key of its own without its list of maps being closed
    closed = []
    maps = AutomorphismGroup.maps

    def spy(self):
        closed.append(self.origin)
        return maps.fget(self)

    monkeypatch.setattr(AutomorphismGroup, "maps", property(spy))
    spec = "x".join(["C:2"] * 5)
    choices = automorphism_choices(group(spec), lattice(spec))
    assert [label for label, _ in choices] == ["A=1", "A=aut"]
    assert closed == []


def test_automorphism_choices_skip_equal_generator_sets(monkeypatch):
    # on an abelian group K.Z(G) = G for every K, so every inner action
    # has the key of A=1 and no class poset is built for it: one poset
    # for A=1 and one for A=aut
    builds = [0]
    build = verify_module.build_class_poset

    def counted(*args):
        builds[0] += 1
        return build(*args)

    monkeypatch.setattr(verify_module, "build_class_poset", counted)
    spec = "x".join(["C:2"] * 5)
    choices = automorphism_choices(group(spec), lattice(spec))
    assert [label for label, _ in choices] == ["A=1", "A=aut"]
    assert builds[0] <= 2


@pytest.mark.parametrize("spec", ["S:4", "A:5", "D:4xD:4", "Q:8xS:3"])
def test_automorphism_choices_close_no_map_list(spec, monkeypatch):
    # the oracle dedups the same candidates, in the same order, by their
    # closed sets of maps; the battery's keys must keep the same labels
    # without closing any list
    from moebius.automorphisms import AutomorphismGroup
    from moebius.groups import commutator_subgroup
    G, lat = group(spec), lattice(spec)
    d = commutator_subgroup(G).mask
    candidates = [("A=1", trivial_automorphisms(G)), ("A=inn", inner_automorphisms(G))]
    candidates += [(f"A=inn:order={s.order}#{lat.by_order[s.order].index(i)}",
                    inner_automorphisms(G, s))
                   for i, s in enumerate(lat.subgroups) if d & ~s.mask == 0]
    candidates.append(("A=aut", full_automorphism_group(G)))
    oracle = {}
    for label, A in candidates:
        oracle.setdefault(frozenset(a.map for a in A.maps), label)

    def closed(self):
        raise AssertionError("a list of maps was closed")

    monkeypatch.setattr(AutomorphismGroup, "maps", property(closed))
    assert [label for label, _ in automorphism_choices(G, lat)] == list(oracle.values())


def test_mu_pairs_match_column():
    pos = poset("A:5")
    for c in range(len(pos.classes)):
        assert mu_column(pos.rows(), [pos.top])[c] == pos.mu_top[c]
    # mu is zero off the order relation
    c6 = class_by(pos, order=6)
    c10 = class_by(pos, order=10)
    assert mu_column(pos.rows(), [c10])[c6] == 0 and mu_column(pos.rows(), [c6])[c10] == 0


@pytest.mark.parametrize("spec,aut", [
    ("S:4", "1"), ("S:4", "inn"), ("S:4", "aut"), ("A:5", "inn"),
    ("D:12xC:2", "inn"), ("Q:8xS:3", ("inn", 4, 0)), ("C:2xC:2xC:2xC:2", "1"),
])
def test_columns_match_pair_recursion(spec, aut):
    """mu on every pair, read off a `mu_column` sweep, and every column of the
    subposet of closed classes, one `mu_column` sweep over the poset's rows
    with an empty row at each class that is not closed, as the Crapo check
    runs it, equal the defining recursion along the strict up-sets; the
    closed subposet's columns are 0 at the classes that are not closed."""
    pos = poset(spec, aut)
    n = len(pos.classes)
    for y in range(n):
        assert mu_column(pos.rows(), [y]) == \
            [recursive_mu(pos, x, y) for x in range(n)], y
    cl = maximal_closure_map(pos)
    closed_rows = [row if cl[x] == x else 0 for x, row in enumerate(pos.rows())]
    closed = [c for c in range(n) if cl[c] == c]
    within = frozenset(closed)
    for y in closed:
        column = mu_column(closed_rows, [y])
        assert [column[x] for x in closed] == \
            [recursive_mu(pos, x, y, within) for x in closed], y
        assert all(column[x] == 0 for x in range(n) if x not in within), y


def test_top_column_reads_the_lattice_column():
    """A poset of singleton classes takes its top column from the lattice,
    not from a second sweep: a tampered lattice column shows through."""
    G = group("S:4")
    lat = enumerate_subgroups(G)
    tampered = [7] * len(lat)
    lat._mu_top = tampered
    pos = build_class_poset(lat, trivial_automorphisms(G))
    assert pos.blocks is None
    assert pos.mu_top == tampered


def test_refinement_between_actions():
    lat = lattice("S:4")
    pos1 = poset("S:4", "1")
    posi = poset("S:4", "inn")
    posa = poset("S:4", "aut")
    # orbits of a smaller action refine orbits of a larger one
    for i in range(len(lat.subgroups)):
        orbit1 = set(pos1.orbit(pos1.class_of[i]))
        orbiti = set(posi.orbit(posi.class_of[i]))
        orbita = set(posa.orbit(posa.class_of[i]))
        assert orbit1 <= orbiti <= orbita


# -- closure machinery -------------------------------------------------------

@pytest.mark.parametrize("spec,aut", [
    ("S:4", "inn"), ("S:4", "1"), ("S:4", "aut"),
    ("A:5", "1"), ("A:5", "inn"),
    ("A:4", ("inn", 4, 0)), ("C:12", "1"), ("Q:8", "inn"),
])
def test_crapo_all_pairs(spec, aut):
    pos = poset(spec, aut)
    cl = maximal_closure_map(pos)
    validate_closure_map(pos, cl)
    assert crapo_check_all(pos, cl) == []


@pytest.mark.parametrize("spec,aut", [
    ("S:4", "inn"), ("S:4", "aut"), ("A:5", "1"), ("D:12xC:2", "inn"),
    ("Q:8xS:3", ("inn", 4, 0)),
])
def test_seeded_sweep_sums_columns(spec, aut):
    """One `mu_column` sweep seeded with a set Z of classes gives the sum
    of the columns mu(., z) over Z: on every closure group of the closure
    by maximal subgroups, which the Crapo check reads, on all classes, on
    random sets of classes, and (all zeros) on none."""
    pos = poset(spec, aut)
    rows = pos.rows()
    n = len(rows)
    groups = {}
    for z, c in enumerate(maximal_closure_map(pos)):
        groups.setdefault(c, []).append(z)
    assert any(len(zs) > 1 for zs in groups.values())
    rng = random.Random(spec)
    drawn = [rng.sample(range(n), rng.randint(1, min(n, 6))) for _ in range(8)]
    for zs in list(groups.values()) + [list(range(n))] + drawn:
        assert mu_column(rows, zs) == summed_columns(rows, zs), zs
    assert mu_column(rows, []) == [0] * n


def test_battery_builds_each_class_poset_once(monkeypatch):
    """`run_battery` reuses the class poset `automorphism_choices` built
    for each action, in its main loop and in lambda-equals-mu, and the
    (mu, lambda) analyzer, which the relative-count checks read, reads
    the lattice's conjugation poset, the one A=inn chose: with a fresh
    lattice, which builds that one, exactly one poset per chosen action
    is constructed."""
    builds = [0]
    build = verify_module.build_class_poset

    def counted(*args):
        builds[0] += 1
        return build(*args)

    constructed = [0]
    init = ClassPoset.__init__

    def counted_init(self, *args):
        constructed[0] += 1
        init(self, *args)

    spec = "D:12xC:2"
    G = group(spec)
    choices = automorphism_choices(G, lattice(spec))
    monkeypatch.setattr(ClassPoset, "__init__", counted_init)
    fresh = enumerate_subgroups(G)
    monkeypatch.setattr(verify_module, "build_class_poset", counted)
    checks = verify_module.run_battery(G, t_max=1, lattice=fresh)
    actions = [c["name"] for c in checks if c["name"].startswith("poset-axioms[")]
    assert len(actions) == len(choices) > 2
    assert any(c["name"].startswith("lambda-equals-mu[") for c in checks)
    assert builds[0] == constructed[0] == len(choices)


def test_crapo_identity_closure():
    pos = poset("S:4")
    ident = list(range(len(pos.classes)))
    assert crapo_check_all(pos, ident) == []
    # every class sent to the top: only the top is closed, so the right
    # side sweeps rows that are all empty but the top's
    assert crapo_check_all(pos, [pos.top] * len(pos.classes)) == []


def test_crapo_rejects_non_closure():
    pos = poset("S:4")
    bad = [pos.bottom] * len(pos.classes)  # sends top below itself
    with pytest.raises(NotAClosureMap):
        validate_closure_map(pos, bad)


def test_closure_map_checks_catch_a_map_that_is_not_monotone():
    # extensive and idempotent, but C2 (class 1) goes to S4 while the V4
    # above it (class 5) stays put
    pos = _fresh_s4_poset()
    cl = list(range(len(pos.classes)))
    cl[1] = pos.top
    with pytest.raises(NotAClosureMap, match="not monotone at 1 <= 5") as exc:
        validate_closure_map(pos, cl)
    assert exc.value.axiom == "b"


def test_closure_map_checks_catch_a_map_that_is_not_idempotent():
    # extensive and monotone, but C4 goes to D8 and D8 to S4
    pos = _fresh_s4_poset()
    cl = list(range(len(pos.classes)))
    cl[4], cl[8] = 8, pos.top
    with pytest.raises(NotAClosureMap, match="not idempotent at 4") as exc:
        validate_closure_map(pos, cl)
    assert exc.value.axiom == "c"


@pytest.mark.parametrize("spec,aut", [
    ("S:4", "inn"), ("A:5", "1"), ("C:7", "1"), ("Q:8", "inn"),
])
def test_nonzero_implies_closed(spec, aut):
    pos = poset(spec, aut)
    assert nonzero_implies_closed(pos, maximal_closure_map(pos)) == []


def test_s4_c4_is_open_with_zero_lambda():
    pos = poset("S:4")
    lat = pos.lattice
    cl = maximal_closure_map(pos)
    c4 = next(c for c in range(len(pos.classes))
              if pos.rep(c).order == 4
              and any(lat.group.element_orders[x] == 4
                      for x in pos.rep(c).elements()))
    assert cl[c4] != c4
    assert pos.mu_top[c4] == 0


# -- structural lemma instances ----------------------------------------------

@pytest.mark.parametrize("spec,aut", [
    ("S:4", "inn"), ("S:4", "1"), ("A:4", "inn"), ("A:4", ("inn", 4, 0)),
    ("Q:8", "inn"), ("D:7", "1"), ("S:3xC:3", "inn"),
])
def test_conjunctive_identity(spec, aut):
    pos = poset(spec, aut)
    lat = pos.lattice
    G = lat.group
    for i in range(len(lat.subgroups)):
        n_sub = lat.subgroups[i]
        if i == lat.trivial_id or not is_normal_mask(G, n_sub.mask):
            continue
        if any(a.apply_mask(n_sub.mask) != n_sub.mask for a in action(spec, aut).maps):
            continue
        assert conjunctive_identity_violations(pos, n_sub) == []


@pytest.mark.parametrize("spec", ["S:4", "A:4", "S:3", "S:3xC:3", "D:5", "C:2xA:4"])
def test_abelian_minimal_normal_identity(spec):
    """mu_A(H,G) = -mu_A(HN,G) * (number of A-classes of complements of N
    containing H), for N abelian minimal normal inside K, A = inner-by-K."""
    lat = lattice(spec)
    G = lat.group
    for n_id in minimal_normal_subgroup_ids(lat):
        n_sub = lat.subgroups[n_id]
        # abelian: every pair of elements of N commutes
        elems = n_sub.elements()
        if any(G.mul(a, b) != G.mul(b, a) for a in elems for b in elems):
            continue
        for k_id, K in enumerate(lat.subgroups):
            if n_sub.mask & ~K.mask:
                continue
            A = inner_automorphisms(G, K)
            pos = build_class_poset(lat, A)
            for c in range(len(pos.classes)):
                h = pos.rep(c)
                hn = product_mask(G, h.mask, n_sub.mask)
                if hn == h.mask:
                    continue
                lhs = pos.mu_top[c]
                rhs = (-pos.mu_top[pos.class_of[lat.index[hn]]]
                       * complement_class_count(pos, n_sub, h))
                assert lhs == rhs, (spec, n_sub.order, K.order, h.order)


@pytest.mark.parametrize("spec,aut", [("S:4", "inn"), ("S:4", "1"),
                                      ("A:4", "inn"), ("Q:8", "inn")])
def test_quotient_identity(spec, aut):
    """mu_A(HN, G) = mu_Abar(HN/N, G/N) for A-invariant normal N."""
    pos = poset(spec, aut)
    lat = pos.lattice
    G = lat.group
    for i in range(len(lat.subgroups)):
        n_sub = lat.subgroups[i]
        if not is_normal_mask(G, n_sub.mask):
            continue
        if any(a.apply_mask(n_sub.mask) != n_sub.mask for a in action(spec, aut).maps):
            continue
        Q, proj = quotient_group(G, n_sub)
        from moebius.lattice import enumerate_subgroups
        qlat = enumerate_subgroups(Q)
        abar = induced_quotient_action(action(spec, aut), n_sub, Q, proj)
        qpos = build_class_poset(qlat, abar)
        for c in range(len(pos.classes)):
            h = pos.rep(c)
            hn = product_mask(G, h.mask, n_sub.mask)
            c_hn = pos.class_of[lat.index[hn]]
            image = subgroup_image_mask(proj, hn)
            cq = qpos.class_of[qlat.index[image]]
            assert pos.mu_top[c_hn] == qpos.mu_top[cq]


@pytest.mark.parametrize("spec", ["S:4", "A:4", "Q:8", "D:7", "S:3xC:4",
                                  "C:2xA:4", "D:12"])
def test_solvable_inner_by_k_matches_lambda(spec):
    """For solvable G and G' <= K <= G: lambda = mu_{inner-by-K} everywhere."""
    from moebius.groups import commutator_subgroup, is_solvable
    lat = lattice(spec)
    G = lat.group
    assert is_solvable(G)
    lam = poset(spec)
    derived = commutator_subgroup(G)
    for K in lat.subgroups:
        if derived.mask & ~K.mask:
            continue
        pos = build_class_poset(lat, inner_automorphisms(G, K))
        for i in range(len(lat.subgroups)):
            assert lam.mu_top[lam.class_of[i]] == pos.mu_top[pos.class_of[i]]


def test_divisibility_scan_runs():
    pos = poset("S:4")
    lat = pos.lattice
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(lat.group, s.mask))
    # pure reporting: no exception, result is a list of class ids
    out = divisibility_scan(pos, v4)
    assert isinstance(out, list)
