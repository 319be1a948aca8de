import pytest

from helpers import brute_center_mask, closure_mask, group, lattice, reference_elements
from moebius import cli, groups
from moebius.catalog import family_specs
from moebius.errors import BudgetExceeded, ClosureExceedsCap, NotNormal, ParseError
from moebius.groups import (FiniteGroup, bits, build_from_spec, closure, commutator_subgroup,
                            derived_series, extend_closure, generate_group, is_nilpotent,
                            is_solvable, quotient_group)
from moebius.perm import Permutation, parse_cycles


def naive_mulclose(perms):
    """Independent closure oracle over Permutation objects."""
    els = set(perms) | {Permutation.identity(perms[0].degree)}
    while True:
        new = {a * b for a in els for b in els}
        if new <= els:
            return els
        els |= new


@pytest.mark.parametrize("spec,order", [
    ("S:3", 6), ("S:4", 24), ("A:4", 12), ("A:5", 60), ("C:1", 1), ("C:12", 12),
    ("D:3", 6), ("D:7", 14), ("D:1", 2), ("D:2", 4), ("Q:8", 8),
    ("S:1", 1), ("A:2", 1), ("A:3", 3),
    ("A:5xA:5", 3600), ("C:2xC:3", 6), ("S:4xC:2", 48),
])
def test_spec_orders(spec, order):
    assert build_from_spec(spec).order == order


def test_generate_group_matches_naive_closure():
    gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)]
    G = generate_group(gens)
    assert G.order == 60
    assert G.order == len(naive_mulclose(gens))


def test_element_order_matches_reference_bfs():
    """Every element index downstream follows the BFS order of
    `generate_group`: the sweep's groups, two large ones, the one-point
    group, a transposition and a repeated generator keep it."""
    specs = family_specs(100) + ["A:7", "S:6", "perm:[(1)]", "perm:[(1,2)]",
                                 "perm:[(1,2,3);(1,2,3);(1,2)]"]
    for spec in specs:
        G = build_from_spec(spec)
        assert G.elements == reference_elements([G.elements[g] for g in G.gens],
                                                 G.degree), spec
    assert generate_group([], degree=3).elements == [(0, 1, 2)]


def test_sym3_from_transposition_and_cycle():
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    assert generate_group(gens).order == 6


def test_empty_generators_yield_trivial_group():
    G = generate_group([], degree=1)
    assert G.order == 1 and G.degree == 1


def test_closure_cap():
    with pytest.raises(ClosureExceedsCap):
        build_from_spec("S:5", cap=100)


def test_mixed_degree_generators_rejected():
    with pytest.raises(ValueError):
        generate_group([parse_cycles("(1,2)", 2), parse_cycles("(1,2,3)", 3)])


def test_perm_atom_and_products():
    G = build_from_spec("perm:[(1,2)(3,4);(1,3)]")
    assert G.order == 8  # dihedral on the square
    H = build_from_spec("perm:[(1,2)]xC:3")
    assert H.order == 6 and H.degree == 5


@pytest.mark.parametrize("bad", ["", "S4", "S:0", "Z:3", "Q:16", "perm:[]",
                                 "S:3x", "perm:[(0,1)]"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        build_from_spec(bad)


def test_parse_error_position():
    try:
        build_from_spec("S:3xZ:9")
    except ParseError as exc:
        assert exc.position == 4
    else:
        raise AssertionError("expected ParseError")


def test_build_is_deterministic():
    a = build_from_spec("S:4")
    b = build_from_spec("S:4")
    assert a.elements == b.elements and a.gens == b.gens


@pytest.mark.parametrize("spec", ["S:4", "D:7", "Q:8", "C:12", "A:5"])
def test_table_closure_and_inverses(spec):
    G = group(spec)
    n = G.order
    mt = G.table
    inv = G.inverse
    idx = set(range(n))
    for a in range(n):
        assert inv[inv[a]] == a
        assert mt[a * n + inv[a]] == G.identity
        for b in range(n):
            assert mt[a * n + b] in idx


@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3", "D:12xC:2", "A:6", "C:1", "C:300",
                                  "perm:[(1,2,3);(1,2,3);(1,2)]", "perm:[(1)]"])
def test_table_matches_composed_images(spec):
    # every entry against the composed image tuples, (x*y)[i] = y[x[i]]
    G = build_from_spec(spec, cap=400)
    n = G.order
    els = G.elements
    mt = G.table
    assert len(mt) == n * n
    for a, pa in enumerate(els):
        for b, pb in enumerate(els):
            assert mt[a * n + b] == G.index[tuple(pb[i] for i in pa)]


def test_table_rejects_generators_that_miss_elements():
    # rows are reached from the identity through the generators only
    G = FiniteGroup([(0, 1), (1, 0)], gens=())
    with pytest.raises(ValueError):
        G.table


def test_table_rejects_generators_of_a_proper_subgroup():
    # the rows of <(1,2,3)> fill one coset of it; S_3 has two
    S3 = build_from_spec("S:3")
    rot = S3.element_orders.index(3)
    G = FiniteGroup(S3.elements, gens=(rot,))
    with pytest.raises(ValueError):
        G.table


def test_table_order_limit_refuses_before_allocating(monkeypatch, capsys):
    # with the limit below |S_4| = 24 the table raises before any buffer is
    # made, and the CLI reports one error line and prints nothing
    def no_allocation(*args):
        raise AssertionError("table buffer allocated above the order limit")

    monkeypatch.setattr(groups, "MAX_TABLE_ORDER", 23)
    monkeypatch.setattr(groups, "array", no_allocation)
    G = build_from_spec("S:4")
    with pytest.raises(BudgetExceeded, match="24 > 23"):
        G.table
    assert cli.main(["sigma-table", "S:4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "24 > 23" in captured.err


@pytest.mark.parametrize("spec", ["S:4", "A:5", "D:12xC:2", "Q:8xS:3"])
def test_extend_closure_matches_generator_closure(spec):
    # <H, x> filled by cosets against a BFS over H's witness and x, for
    # every subgroup H (the trivial one included) and every x (in H or not)
    G = group(spec)
    lat = lattice(spec)
    for i, H in enumerate(lat.subgroups):
        w = lat.witness(i)
        h_elems = list(bits(H.mask))
        for x in range(G.order):
            assert extend_closure(G, H.mask, h_elems, w, x) == closure_mask(G, w + (x,))


@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3"])
def test_closure_folds_elements_into_a_subgroup(spec):
    # <H, x, y> for every subgroup H and a spread of element pairs, against
    # a BFS; the generators returned are H's witness plus the elements that
    # joined, and generate the bitset
    G = group(spec)
    lat = lattice(spec)
    pairs = [(x, (7 * x + 3) % G.order) for x in range(G.order)]
    assert closure(G, ()) == (1 << G.identity, [])
    for i, H in enumerate(lat.subgroups):
        w = lat.witness(i)
        for xs in pairs:
            mask, gens = closure(G, xs, H.mask, w)
            assert mask == closure_mask(G, w + xs)
            assert gens[:len(w)] == list(w) and set(gens[len(w):]) <= set(xs)
            assert closure_mask(G, gens) == mask


@pytest.mark.parametrize("spec", ["C:1", "S:4", "Q:8xS:3", "D:12xC:2", "A:6", "C:300"])
def test_orders_and_inverses_match_the_permutations(spec):
    # read off the table's power walks, against each element's cycles
    G = build_from_spec(spec, cap=400)
    perms = [Permutation(p) for p in G.elements]
    assert G.element_orders == [p.order() for p in perms]
    assert G.inverse == [G.index[p.inverse().images] for p in perms]


def test_large_degree_table_path():
    # degree above 255: the same table path as for every other degree
    G = build_from_spec("C:300", cap=400)
    assert G.degree == 300
    mt = G.table
    g = G.gens[0]
    assert mt[g * G.order + g] == G.index[tuple((i + 2) % 300 for i in range(300))]
    assert G.element_orders[g] == 300


def test_dihedral_relation():
    G = group("D:7")
    rot, refl = G.gens
    # a^b = a^-1
    assert G.conj(rot, refl) == G.inverse[rot]


def test_center():
    assert group("Q:8").center_mask.bit_count() == 2
    assert group("S:3").center_mask.bit_count() == 1
    assert group("C:12").center_mask.bit_count() == 12
    for spec in family_specs(48):
        G = build_from_spec(spec)
        assert G.center_mask == brute_center_mask(G), spec


def brute_commutator_mask(G, a_mask, b_mask):
    """<[a, b] : a in A, b in B> from all |A|*|B| commutators."""
    seeds = set()
    for a in bits(a_mask):
        for b in bits(b_mask):
            ia, ib = G.inverse[a], G.inverse[b]
            seeds.add(G.mul(G.mul(G.mul(ia, ib), a), b))
    return closure_mask(G, seeds)


@pytest.mark.parametrize("spec,dorder", [
    ("S:4", 12), ("C:12", 1), ("D:7", 7), ("A:4", 4), ("Q:8", 2), ("A:5", 60),
])
def test_commutator_subgroup(spec, dorder):
    G = group(spec)
    d = commutator_subgroup(G)
    assert d.order == dorder
    assert d.mask == brute_commutator_mask(G, G.full_mask(), G.full_mask())
    from moebius.groups import is_normal_mask
    assert is_normal_mask(G, d.mask)


def test_solvability_flags():
    assert is_solvable(group("S:4")) and not is_nilpotent(group("S:4"))
    assert not is_solvable(group("A:5"))
    assert is_nilpotent(group("Q:8"))
    assert is_nilpotent(group("C:12"))
    assert len(derived_series(group("S:4"))) == 4  # S4 > A4 > V4 > 1


def test_quotient_group():
    G = group("S:4")
    d = commutator_subgroup(G)
    Q, proj = quotient_group(G, d)
    assert Q.order == 2
    # projection is a homomorphism, exhaustively
    for a in range(G.order):
        for b in range(G.order):
            assert proj[G.mul(a, b)] == Q.mul(proj[a], proj[b])

    A4 = group("A:4")
    v4 = next(s for s in lattice("A:4").subgroups if s.order == 4)
    Q2, _ = quotient_group(A4, v4)
    assert Q2.order == 3


def test_quotient_not_normal():
    G = group("S:3")
    c2 = next(s for s in lattice("S:3").subgroups if s.order == 2)
    with pytest.raises(NotNormal):
        quotient_group(G, c2)


def test_lower_central_vs_derived():
    G = group("D:4")
    full = G.full_mask()
    d1 = brute_commutator_mask(G, full, full)
    assert d1.bit_count() == 2  # [D4, D4] = C2


@pytest.mark.parametrize("spec", ["S:4", "A:5", "Q:8xS:3", "D:12xC:2", "D:4xC:2",
                                  "A:4xC:3", "C:2xC:2xC:2xC:2"])
def test_series_match_all_pairs_oracle(spec):
    # derived and lower central series by normal closure of generator
    # commutators, against the subgroups generated by all commutators
    G = group(spec)
    full = G.full_mask()
    series = [full]
    while (nxt := brute_commutator_mask(G, series[-1], series[-1])) != series[-1]:
        series.append(nxt)
    assert derived_series(G) == series
    lower = full
    while (nxt := brute_commutator_mask(G, full, lower)) != lower:
        lower = nxt
    assert is_nilpotent(G) == (lower == 1 << G.identity)
