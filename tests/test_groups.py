import ast
import re
from operator import itemgetter
from pathlib import Path

import pytest

from helpers import brute_center_mask, closure_mask, composed, group, lattice, reference_elements
from moebius import cli, groups
from moebius.catalog import family_specs
from moebius.errors import BudgetExceeded, ClosureExceedsCap, NotNormal, ParseError
from moebius.groups import (FiniteGroup, _room, bits, build_from_spec, closure,
                            commutator_subgroup, conjugate_mask, derived_series, extend_closure,
                            fill_cosets, generate_group, is_nilpotent, is_normal_mask, is_solvable,
                            product_mask, quotient_group)
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
                                  "C:256", "C:257",
                                  "perm:[(1,2,3);(1,2,3);(1,2)]", "perm:[(1)]"])
def test_table_matches_composed_images(spec):
    # every product against the composed image tuples, (x*y)[i] = y[x[i]]:
    # read off the table up to 256 elements (C:256 is the largest group
    # with one), composed from image words above, where the group builds
    # no table (A:6 from image bytes, C:257 and C:300 from image tuples)
    G = build_from_spec(spec, cap=400)
    n = G.order
    els = G.elements
    index = G.index
    rows = []
    for a, pa in enumerate(els):
        # row a at once: the image tuple of b -> that of a*b; on one point
        # itemgetter would return the point, not a tuple
        compose = itemgetter(*pa) if G.degree > 1 else tuple
        rows.append([index[compose(pb)] for pb in els])
        assert G.coset(a, range(n)) == rows[a]
    # built without the BFS's right-multiplication maps, the group
    # composes them from its elements and gives the same products
    H = FiniteGroup(els, G.gens)
    if n <= 256:
        assert list(G.table) == [y for row in rows for y in row]
        assert H.table == G.table
    else:
        assert [H.coset(a, range(n)) for a in range(0, n, 7)] == rows[::7]
        with pytest.raises(ValueError, match="no multiplication table"):
            G.table
        assert G._table is None and H._table is None


def _prime_of_power(n):
    """p when n = p^a for a prime p and a >= 1, else 0, by trial division."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    return primes[0] if len(primes) == 1 else 0


@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3", "C:2xC:2xC:2xC:2xC:2xC:2", "C:1",
                                  "perm:[(1)]", "D:129", "C:257"])
def test_zuppos_match_element_oracle(spec):
    # the one power walk against element orders from the permutations and
    # cyclic subgroups from a BFS closure, with a table and (D:129, C:257)
    # without: each cyclic subgroup of prime-power order once, under its
    # least generator, with that generator's powers; every generator of a
    # zuppo mapped to that least generator and every other element to -1;
    # and power_cands[y], keyed by y = x^p for each zuppo Z = <x> of order
    # p^a, x its least generator, with <y> the unique subgroup of index p
    # in Z
    G = build_from_spec(spec, cap=400)
    n = G.order
    orders = [G.permutation(x).order() for x in range(n)]
    assert G.element_orders == orders
    one = G.permutation(G.identity)
    assert all(G.permutation(x) * G.permutation(G.inverse[x]) == one for x in range(n))
    # <x> for each x, one closure per cyclic subgroup: the elements of <x>
    # of the same order as x generate it
    cyclic = [0] * n
    for x in range(n):
        if not cyclic[x]:
            c = closure_mask(G, [x])
            for y in bits(c):
                if orders[y] == orders[x]:
                    cyclic[y] = c
    prime = {k: _prime_of_power(k) for k in set(orders)}
    least = {}
    for x in range(n):
        if prime[orders[x]]:
            least.setdefault(cyclic[x], x)
    zuppo_of, zpowers, power_cands = G.zuppos
    assert list(zpowers) == sorted(least.values())
    assert zpowers == {zx: G.powers(zx) for zx in least.values()}
    assert zuppo_of == [least.get(cyclic[x], -1) for x in range(n)]
    expected = {}
    for zx in zpowers:
        k = orders[zx]
        x_p = G.permutation(zx)
        for _ in range(prime[k] - 1):
            x_p *= G.permutation(zx)
        y = G.index[x_p.images]
        assert cyclic[y] & ~cyclic[zx] == 0 and cyclic[y].bit_count() == k // prime[k]
        expected[y] = expected.get(y, 0) | 1 << zx
    assert power_cands == expected


def test_table_rejects_generators_that_miss_elements():
    # rows are reached from the identity through the generators only
    G = FiniteGroup([(0, 1), (1, 0)], gens=())
    with pytest.raises(ValueError):
        G.table


@pytest.mark.parametrize("spec", ["S:3", "A:6"])
def test_table_rejects_generators_of_a_proper_subgroup(spec):
    # one generator of order 3 reaches the columns of <g> only (S_3, with
    # a table) or the elements of <g> only (A_6, whose image words are
    # walked from the identity along the generators); either raises before
    # the centre is read off that generator's map alone
    full = build_from_spec(spec)
    g = full.element_orders.index(3)
    G = FiniteGroup(full.elements, gens=(g,))
    with pytest.raises(ValueError, match="do not generate"):
        G.center_mask
    with pytest.raises(ValueError):
        G.table if G.order <= 256 else G.coset(g, range(G.order))


def test_order_limit_stops_the_bfs(monkeypatch, capsys):
    # with the limit below |S_4| = 24 the BFS stops at the 24th element,
    # whatever the order cap allows, and the CLI reports one error line
    # and prints nothing
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 23)
    with pytest.raises(BudgetExceeded, match="24 > 23"):
        build_from_spec("S:4", cap=1000)
    with pytest.raises(ClosureExceedsCap):
        build_from_spec("S:4", cap=20)
    assert cli.main(["sigma-table", "S:4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "24 > 23" in captured.err


def test_size_rule_refuses_a_spec_before_building_generators(monkeypatch, capsys):
    # the named atoms' orders multiply past the cap, so the spec is refused
    # before any generator tuple is built: C:3000000 built generators of
    # 3 * 10^6 points each and ran out of memory in the BFS
    def refuse(n):
        raise AssertionError(f"C:{n} generators built")

    monkeypatch.setattr(groups, "_cyc_gens", refuse)
    for spec in ["C:3000000", "C:2xC:3000000", "C:99999999999"]:
        with pytest.raises(ClosureExceedsCap, match="order cap 20160"):
            build_from_spec(spec)
        assert cli.main(["table", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: group closure exceeds the order cap 20160\n"
    # a parse error anywhere in the spec comes first
    with pytest.raises(ParseError):
        build_from_spec("C:3000000xC:0")


@pytest.mark.parametrize("spec", ["S:1", "S:2", "S:5", "A:1", "A:2", "A:3", "A:6", "C:1",
                                  "C:7", "D:1", "D:2", "D:6", "Q:8"])
def test_size_rule_orders_are_the_built_orders(spec):
    factors, _ = groups._parse_atom(spec, 0)
    order = 1
    for f in factors:
        order *= f
    assert order == build_from_spec(spec).order
    # exactly at the cap the group is built; one below, it is refused
    assert build_from_spec(spec, cap=order).order == order
    if order > 1:
        with pytest.raises(ClosureExceedsCap):
            build_from_spec(spec, cap=order - 1)


def test_bfs_still_caps_a_perm_atom(monkeypatch):
    # a perm atom's order is known only from its BFS, which raises what
    # the size rule raises for a named atom: S_5 and S_4 on their points
    with pytest.raises(ClosureExceedsCap, match="order cap 100"):
        build_from_spec("perm:[(1,2);(1,2,3,4,5)]", cap=100)
    assert build_from_spec("perm:[(1,2);(1,2,3,4,5)]", cap=120).order == 120
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 23)
    for spec in ["perm:[(1,2);(1,2,3,4)]", "S:4"]:
        with pytest.raises(BudgetExceeded, match="group order exceeded budget: 24 > 23"):
            build_from_spec(spec, cap=1000)


def test_point_budget_refuses_a_spec_before_the_bfs(monkeypatch, capsys):
    # C:20000 passes the order rule (20 000 <= 20 160), but its BFS would
    # hold 20 000 elements of 20 000 points each, and ran out of memory:
    # the named atoms' order times the spec's degree is refused first
    def refuse(*args, **kwargs):
        raise AssertionError("BFS started")

    monkeypatch.setattr(groups, "generate_group", refuse)
    for spec, points in [("C:20000", 20000 * 20000), ("C:20160", 20160 * 20160),
                         ("D:10000", 20000 * 10000)]:
        line = f"group points (order x degree) exceeded budget: {points} > {2 ** 26}"
        with pytest.raises(BudgetExceeded, match=re.escape(line)):
            build_from_spec(spec)
        assert cli.main(["table", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"


def test_bfs_applies_the_point_budget(monkeypatch):
    # a perm atom counts as order 1 in the spec rule, so its BFS stops it,
    # as it stops a quotient: C_6 on 6 points holds 36 > 25 points
    G = group("S:4")
    v4 = next(s for s in lattice("S:4").subgroups if s.order == 4 and is_normal_mask(G, s.mask))
    monkeypatch.setattr(groups, "MAX_GROUP_POINTS", 25)
    assert build_from_spec("C:5").order == 5
    with pytest.raises(BudgetExceeded, match="36 > 25"):
        build_from_spec("C:6")
    with pytest.raises(BudgetExceeded, match="30 > 25"):
        build_from_spec("perm:[(1,2,3,4,5,6)]")
    with pytest.raises(BudgetExceeded, match="30 > 25"):
        quotient_group(G, v4)
    monkeypatch.setattr(groups, "MAX_GROUP_POINTS", 36)
    assert quotient_group(G, v4)[0].order == 6


@pytest.mark.parametrize("spec", ["S:4", "A:5", "D:12xC:2", "Q:8xS:3", "S:5", "A:6"])
def test_extend_closure_matches_generator_closure(spec):
    # <H, x> filled by cosets against a BFS over H's witness and x, for
    # every subgroup H (the trivial one included; class representatives
    # only on A:6) and every x (in H or not); and, given R, the last term
    # of the derived series, as the perfect subgroup holding both, for
    # every such H <= R and x in R
    G = group(spec)
    lat = lattice(spec)
    residue = derived_series(G)[-1]
    ids = range(len(lat)) if G.order <= 120 else lat.class_representatives()
    for i in ids:
        H = lat.subgroups[i]
        w = H.gens
        h_elems = list(bits(H.mask))
        joins = {}
        for x in range(G.order):
            want = joins.get(x)
            if want is None:
                want = closure_mask(G, w + (x,))
                # <H, x*h> = <H, x> for h in H
                joins.update(dict.fromkeys(composed(G, x, h_elems), want))
            assert extend_closure(G, H.mask, h_elems, w, x) == want
            if H.mask & ~residue == 0 and (residue >> x) & 1:
                assert extend_closure(G, H.mask, h_elems, w, x, residue) == want


def test_room_is_the_largest_divisor_below_the_least_index():
    # _room(index, least): the most cosets of H a proper subgroup of the
    # top may hold, when proper subgroups have index >= least in it
    for least in (2, 5):
        for index in range(1, 200):
            assert _room(index, least) == max(
                (d for d in range(1, index + 1) if index % d == 0 and index // d >= least),
                default=0)
    assert [_room(index, 5) for index in (1, 2, 3, 4)] == [0, 0, 0, 0]
    assert _room(1260, 5) == 252
    assert _room(15, 2) == 5


@pytest.mark.parametrize("spec", ["S:4", "D:12xC:2", "Q:8xS:3"])
def test_fill_cosets_lists_the_join(spec):
    # for every subgroup H and every x outside H that normalizes it, the
    # coset fill gives <H, x> against a BFS, and its elements: H's first,
    # in H's order, then the other cosets, each element once
    G = group(spec)
    lat = lattice(spec)
    filled = 0
    for H in lat.subgroups:
        w = H.gens
        h_elems = list(bits(H.mask))
        for x in range(G.order):
            if (H.mask >> x) & 1 or conjugate_mask(G, H.mask, x) != H.mask:
                continue
            mask, elems = fill_cosets(G, H.mask, h_elems, G.powers(x))
            assert mask == closure_mask(G, w + (x,))
            assert sorted(elems) == list(bits(mask))
            if mask != G.full_mask():
                assert list(elems[:len(h_elems)]) == h_elems
            filled += 1
    assert filled


def test_bfs_index_inverts_the_element_list():
    # generate_group hands its BFS dict to the group as `index`; a group
    # built from a bare element list inverts it and refuses duplicates
    G = build_from_spec("S:4")
    assert G.index == {p: i for i, p in enumerate(G.elements)}
    assert FiniteGroup(G.elements, G.gens).index == G.index
    with pytest.raises(ValueError, match="duplicate"):
        FiniteGroup(G.elements + G.elements[:1], G.gens)


@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3"])
def test_closure_folds_elements_into_a_subgroup(spec):
    # <H, x, y> for every subgroup H and a spread of element pairs, against
    # a BFS; the generators returned are H's witness plus the elements that
    # joined, and generate the bitset
    G = group(spec)
    lat = lattice(spec)
    pairs = [(x, (7 * x + 3) % G.order) for x in range(G.order)]
    assert closure(G, ()) == (1 << G.identity, [])
    for H in lat.subgroups:
        w = H.gens
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


@pytest.mark.parametrize("spec", ["S:4", "D:12xC:2", "Q:8xS:3", "D:129", "A:6", "C:300"])
def test_multiplication_primitives_match_the_permutations(spec):
    # powers, products, cosets, conjugates and product sets against
    # Permutation arithmetic; D:129 (258 elements) and A:6 compose image
    # bytes, C:300 (degree 300) image tuples, and none of them has a table
    G = build_from_spec(spec, cap=400)
    n = G.order
    perms = [Permutation(p) for p in G.elements]
    index = {p: i for i, p in enumerate(perms)}
    # Permutation arithmetic on 300 points is slow: walk every fourth
    # element's powers there, every element's elsewhere
    for x in range(0, n, 4 if G.degree > 256 else 1):
        walk, y = [], perms[x]
        while not y.is_identity():
            walk.append(index[y])
            y = y * perms[x]
        assert G.powers(x) == walk
    spread = range(0, n, 1 + n // 24)
    for g in spread:
        pg = perms[g]
        assert G.coset(g, range(n)) == [index[pg * q] for q in perms]
        assert G.products(range(n), [g] * n) == [index[q * pg] for q in perms]
        assert G.conjugates(range(n), g) == [index[pg.inverse() * q * pg] for q in perms]
        assert [G.mul(g, y) for y in spread] == [index[pg * perms[y]] for y in spread]
    thirds = range(1, n, 3)
    products = {index[perms[a] * perms[b]] for a in spread for b in thirds}
    assert product_mask(G, sum(1 << a for a in spread), sum(1 << b for b in thirds)) \
        == sum(1 << y for y in products)
    assert (G._table is None) == (n > 256)


def test_only_groups_reads_the_table():
    # the table's layout is private to groups.py: every other module
    # multiplies through its primitives
    readers = [path.name for path in sorted(Path(groups.__file__).parent.glob("*.py"))
               if path.name != "groups.py"
               and any(isinstance(node, ast.Attribute) and node.attr == "table"
                       for node in ast.walk(ast.parse(path.read_text())))]
    assert readers == []


@pytest.mark.parametrize("spec", ["D:129", "A:6"])
def test_queries_above_256_elements_build_no_table(spec, monkeypatch, capsys):
    # a whole check-mu-lambda run on a group above 256 elements multiplies
    # through composed image words only
    built = []

    def recorded(*args, **kwargs):
        built.append(build_from_spec(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_from_spec", recorded)
    assert cli.main(["check-mu-lambda", spec]) in (0, 1)
    assert capsys.readouterr().out
    assert [G.order > 256 and G._table is None for G in built] == [True]


def test_large_degree_composed_path():
    # degree above 256: no image bytes, so C_300 composes image tuples
    # with one itemgetter per product, like no other group
    G = build_from_spec("C:300", cap=400)
    assert G.degree == 300
    g = G.gens[0]
    assert G.mul(g, g) == G.index[tuple((i + 2) % 300 for i in range(300))]
    assert G.element_orders[g] == 300
    assert G._table is None


def test_dihedral_relation():
    G = group("D:7")
    rot, refl = G.gens
    # a^b = a^-1
    assert G.conjugates([rot], refl) == [G.inverse[rot]]


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
