from math import gcd

import pytest

from helpers import brute_automorphisms, brute_normalizer, group, lattice, subgroups_of_order
from moebius.automorphisms import (automorphism_from_images, close_automorphisms,
                                   full_automorphism_group, induced_quotient_action,
                                   inner_automorphisms, trivial_automorphisms)
from moebius.cache import load_lattice, save_lattice
from moebius.catalog import family_specs
from moebius.classposet import build_class_poset, conjugation_poset, lambda_poset
from moebius.errors import (BoundExceeded, NotAHomomorphism, NotBijective,
                            NotInvariant)
from moebius.groups import conjugate_mask, find_witness, is_normal_mask, quotient_group
from moebius.lattice import enumerate_subgroups


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_inner_sizes():
    G = group("A:4")
    v4 = subgroups_of_order("A:4", 4)[0]
    assert len(inner_automorphisms(G, v4)) == 4
    triv = subgroups_of_order("A:4", 1)[0]
    assert len(inner_automorphisms(G, triv)) == 1
    assert len(inner_automorphisms(group("C:12"))) == 1
    assert len(inner_automorphisms(group("S:4"))) == 24
    # |Inn by K| = |K : K meet Z|
    q8 = group("Q:8")
    for K in lattice("Q:8").subgroups:
        expect = K.order // (K.mask & q8.center_mask).bit_count()
        assert len(inner_automorphisms(q8, K)) == expect


def test_multiplicativity_exhaustive():
    G = group("S:4")
    mt = G.table
    n = G.order
    for a in inner_automorphisms(G).maps:
        m = a.map
        for x in range(0, n, 5):
            for y in range(n):
                assert m[mt[x * n + y]] == mt[m[x] * n + m[y]]


def test_automorphism_from_images():
    G = group("C:5")
    g = G.gens[0]
    sq = G.mul(g, g)
    a = automorphism_from_images(G, [g], [sq])
    # the multiplicative law on all pairs
    mt = G.table
    n = G.order
    for x in range(n):
        for y in range(n):
            assert a.map[mt[x * n + y]] == mt[a.map[x] * n + a.map[y]]
    assert len(close_automorphisms(G, [a])) == 4  # 2 has order 4 mod 5

    S3 = group("S:3")
    ident = automorphism_from_images(S3, list(S3.gens), list(S3.gens))
    assert ident.is_identity()


def test_automorphism_from_images_inner_witness():
    # (1,2) -> (1,3), (1,2,3) -> (1,2,3) extends to conjugation by some g
    S3 = group("S:3")
    t12 = S3.index[(1, 0, 2)]
    t13 = S3.index[(2, 1, 0)]
    c123 = S3.index[(1, 2, 0)]
    a = automorphism_from_images(S3, [t12, c123], [t13, c123])
    assert a in set(inner_automorphisms(S3).maps)


def test_automorphism_from_images_errors():
    C4 = group("C:4")
    g = C4.gens[0]
    with pytest.raises(NotBijective):
        automorphism_from_images(C4, [g], [C4.mul(g, g)])
    S3 = group("S:3")
    t12, c123 = S3.gens
    with pytest.raises((NotAHomomorphism, NotBijective)):
        automorphism_from_images(S3, [t12, c123], [c123, t12])
    with pytest.raises(ValueError):
        automorphism_from_images(S3, [t12], [t12])  # does not generate


@pytest.mark.parametrize("spec,size", [
    ("C:2xC:2xC:2", 168), ("S:3", 6), ("Q:8", 24), ("A:4", 24),
    ("C:5xC:5", 480), ("D:4", 8), ("A:5", 120),
])
def test_full_aut_sizes(spec, size):
    assert len(full_automorphism_group(group(spec))) == size


@pytest.mark.parametrize("n", range(2, 25))
def test_full_aut_cyclic_totient(n):
    assert len(full_automorphism_group(group(f"C:{n}"))) == totient(n)


def test_full_aut_s3_all_inner():
    G = group("S:3")
    assert set(full_automorphism_group(G).maps) == set(inner_automorphisms(G).maps)


def test_full_aut_bound():
    with pytest.raises(BoundExceeded):
        full_automorphism_group(group("C:100"))
    assert len(full_automorphism_group(group("C:100"), bound=128)) == 40


def test_full_aut_small_generating_set():
    # a map is kept only for an image outside the orbit of the maps kept so
    # far; the kept maps generate every automorphism the brute backtrack finds
    for spec in family_specs(24):
        G = group(spec)
        A = full_automorphism_group(G)
        assert len(A.gens) <= 6, spec
        assert A.maps == brute_automorphisms(G), spec


def test_close_automorphisms():
    G = group("C:7")
    g = G.gens[0]
    sq = G.mul(g, g)
    a = automorphism_from_images(G, [g], [sq])
    assert len(close_automorphisms(G, [a])) == 3  # 2 has order 3 mod 7


def orbit_ids(lat, A, s):
    """Lattice ids of the A-orbit of s, ascending, from `lat.orbits`."""
    classes, class_of = lat.orbits([a.map for a in A.gens])
    return classes[class_of[lat.index[s.mask]]][1]


def test_subgroup_orbits():
    lat = lattice("A:5")
    A = trivial_automorphisms(lat.group)
    c3 = subgroups_of_order("A:5", 3)[0]
    assert orbit_ids(lat, A, c3) == (lat.index[c3.mask],)
    A = inner_automorphisms(lat.group)
    assert len(orbit_ids(lat, A, c3)) == 10

    latA4 = lattice("A:4")
    v4 = subgroups_of_order("A:4", 4)[0]
    A = inner_automorphisms(latA4.group, v4)
    for c2 in subgroups_of_order("A:4", 2):
        assert len(orbit_ids(latA4, A, c2)) == 1


@pytest.mark.parametrize("spec", ["S:4", "A:5", "Q:8", "C:2xC:2xC:2"])
def test_lattice_stable_under_automorphisms(spec):
    lat = lattice(spec)
    G = lat.group
    A = (full_automorphism_group(G) if G.order <= 24
         else inner_automorphisms(G))
    for a in A.maps:
        for s in lat.subgroups:
            assert a.apply_mask(s.mask) in lat.index


@pytest.mark.parametrize("spec", ["S:4", "A:4", "Q:8"])
def test_orbits_partition_and_divide(spec):
    lat = lattice(spec)
    A = full_automorphism_group(lat.group)
    classes, class_of = lat.orbits([a.map for a in A.gens])
    seen = set()
    for c, (rep, orbit) in enumerate(classes):
        assert rep == orbit[0] and list(orbit) == sorted(orbit)
        assert len(A) % len(orbit) == 0
        assert all(class_of[j] == c for j in orbit)
        assert not set(orbit) & seen
        seen |= set(orbit)
    assert seen == set(range(len(lat.subgroups)))


@pytest.mark.parametrize("spec", ["S:4", "A:4", "Q:8", "D:6"])
def test_derived_subgroup_is_characteristic(spec):
    from moebius.groups import commutator_subgroup
    G = group(spec)
    d = commutator_subgroup(G)
    for a in full_automorphism_group(G).maps:
        assert a.apply_mask(d.mask) == d.mask


@pytest.mark.parametrize("spec", ["S:4", "A:5", "S:5", "A:6", "S:6", "D:12xC:2", "Q:8xS:3"])
def test_inner_orbits_match_conjugacy_classes(spec, tmp_path):
    # a fresh lattice holds the orbits and normalizers enumeration built,
    # one normalizer per class, kept at the reported representative;
    # recompute both
    G = group(spec)
    lat = enumerate_subgroups(G)
    seeded = dict(lat._normalizer)
    assert sorted(seeded) == lat.class_representatives()
    brute = {m: brute_normalizer(G, m) for m in (lat.subgroups[i].mask for i in seeded)}
    for i, mask in seeded.items():
        assert mask == brute[lat.subgroups[i].mask]
    classes, class_of = lat.orbits([a.map for a in inner_automorphisms(G).gens])
    for i, s in enumerate(lat.subgroups):
        orbit = classes[class_of[i]][1]
        assert orbit == lat.conjugacy_orbit(i)
        # N_G(H) is the subgroup of order |G : class| whose generators normalize H
        norm = lat.normalizer_mask(i)
        assert norm.bit_count() * len(orbit) == G.order
        assert all(conjugate_mask(G, s.mask, x) == s.mask for x in find_witness(G, norm))
    # a lattice read back from the cache is built by the same class walk:
    # the same classes, and one normalizer per class, at its representative
    save_lattice(lat, tmp_path)
    cached = load_lattice(G, tmp_path)
    assert cached.conjugation.classes == lat.conjugation.classes
    assert cached.conjugation.class_of == lat.conjugation.class_of
    assert sorted(cached._normalizer) == cached.class_representatives()
    for i, mask in cached._normalizer.items():
        assert mask == brute[cached.subgroups[i].mask]
    assert cached.mu_top == lat.mu_top
    assert lambda_poset(G, cached).mu_top == lambda_poset(G, lat).mu_top


def test_induced_quotient_action():
    G = group("S:4")
    lat = lattice("S:4")
    v4 = next(s for s in subgroups_of_order("S:4", 4)
              if is_normal_mask(G, s.mask))
    Q, proj = quotient_group(G, v4)
    A = inner_automorphisms(G)
    ind = induced_quotient_action(A, v4, Q, proj)
    assert len(ind) == 6

    triv_n = subgroups_of_order("S:4", 1)[0]
    Q1, proj1 = quotient_group(G, triv_n)
    assert len(induced_quotient_action(A, triv_n, Q1, proj1)) == len(A)

    T = trivial_automorphisms(G)
    assert len(induced_quotient_action(T, v4, Q, proj)) == 1


def test_induced_quotient_action_not_invariant():
    G = group("C:2xC:4")
    lat = lattice("C:2xC:4")
    A = full_automorphism_group(G)
    moved = None
    for s in lat.subgroups:
        if s.order in (2, 4) and any(a.apply_mask(s.mask) != s.mask for a in A.maps):
            moved = s
            break
    assert moved is not None
    Q, proj = quotient_group(G, moved)
    with pytest.raises(NotInvariant):
        induced_quotient_action(A, moved, Q, proj)


def _exactness_actions(spec):
    """inn, every inn:K with K containing G', aut for |G| <= 64, and a
    group generated by one seed map, as the CLI's maps: spec builds it."""
    from moebius.groups import commutator_subgroup
    lat = lattice(spec)
    G = lat.group
    d = commutator_subgroup(G).mask
    actions = [inner_automorphisms(G)]
    actions += [inner_automorphisms(G, K) for K in lat.subgroups if d & ~K.mask == 0]
    if G.order <= 64:
        full = full_automorphism_group(G)
        actions.append(full)
        actions.append(close_automorphisms(G, [full.maps[-1]]))
    return actions


@pytest.mark.parametrize("spec", ["S:4", "D:4", "Q:8", "A:4", "S:3xC:3",
                                  "D:12xC:2", "Q:8xS:3"])
def test_generator_orbits_are_exact(spec):
    lat = lattice(spec)
    for A in _exactness_actions(spec):
        maps = A.maps
        for s in lat.subgroups:
            assert A.mask_orbit(s.mask) == {a.apply_mask(s.mask) for a in maps}


@pytest.mark.parametrize("spec", ["S:4", "D:4", "Q:8", "A:4", "S:3xC:3",
                                  "D:12xC:2", "Q:8xS:3"])
def test_lattice_orbits_are_the_orbits_of_every_map(spec, tmp_path):
    # the generator walk over ids gives the orbits of the closed list of
    # maps, on an enumerated lattice and on one read back from the cache
    lat = lattice(spec)
    save_lattice(lat, tmp_path)
    cached = load_lattice(lat.group, tmp_path)
    for L in (lat, cached):
        for A in _exactness_actions(spec):
            maps = A.maps
            expected = sorted({tuple(sorted({L.index[a.apply_mask(s.mask)] for a in maps}))
                               for s in L.subgroups})
            classes, class_of = L.orbits([a.map for a in A.gens])
            assert classes == [(orbit[0], orbit) for orbit in expected]
            assert all(i in classes[class_of[i]][1] for i in range(len(L)))
        assert conjugation_poset(L).classes == \
            build_class_poset(L, inner_automorphisms(L.group)).classes


def test_inner_holds_generator_maps_only():
    for spec in ("S:4", "A:5", "D:12xC:2", "C:2xC:2xC:2xC:2xC:2xC:2"):
        G = group(spec)
        assert len(inner_automorphisms(G).gens) <= len(G.gens)
    for spec in ("C:12", "C:2xC:2xC:2xC:2xC:2xC:2"):
        A = inner_automorphisms(group(spec))
        assert not A.gens
        assert A._maps is None  # the full list was never closed


@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3", "D:12xC:2"])
def test_one_conjugation_map_per_non_central_generator(spec):
    G = group(spec)
    movers = [g for g in dict.fromkeys(G.gens)
              if any(G.mul(x, g) != G.mul(g, x) for x in range(G.order))]
    assert G.conjugations is G.conjugations     # built once
    assert [g for g, _ in G.conjugations] == movers
    for g, x_to_xg in G.conjugations:
        assert x_to_xg == [G.mul(G.mul(G.inverse[g], x), g) for x in range(G.order)]
    if spec == "D:12xC:2":
        # the C:2 factor's generator is central and gets no map
        assert len(movers) < len(set(G.gens))
    maps = list(dict.fromkeys(tuple(x_to_xg) for _, x_to_xg in G.conjugations))
    assert [a.map for a in inner_automorphisms(G).gens] == maps
