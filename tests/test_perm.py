import random

import pytest

from helpers import brute_automorphisms, group
from moebius.automorphisms import full_automorphism_group
from moebius.errors import ParseError
from moebius.perm import Permutation, orbit, parse_cycles


def test_identity_and_composition():
    p = parse_cycles("(1,2)", degree=3)
    q = parse_cycles("(1,2,3)", degree=3)
    assert (p * p).is_identity()
    # apply p first, then q: 0 -> 1 -> 2
    assert (p * q).images[0] == 2
    # apply q first, then p: 0 -> 1 -> 0
    assert (q * p).images[0] == 0
    assert (q * p).images[1] == 2


def test_inverse_and_order():
    q = parse_cycles("(1,2,3)(4,5)", degree=5)
    assert q.order() == 6
    assert (q * q.inverse()).is_identity()
    assert Permutation.identity(4).order() == 1


def test_cycle_string_roundtrip():
    for text in ["(1,2)", "(1,2,3)(4,5)", "(2,4)(3,5)"]:
        p = parse_cycles(text, degree=5)
        assert parse_cycles(p.cycle_string(), degree=5) == p
    assert Permutation.identity(3).cycle_string() == "()"


def test_not_a_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_cycles("(1,2", degree=4)
    with pytest.raises(ParseError):
        parse_cycles("(0,1)", degree=4)  # 1-based points
    with pytest.raises(ParseError):
        parse_cycles("(1,1)", degree=4)
    with pytest.raises(ParseError):
        parse_cycles("(1,2)(2,3)", degree=4)  # point reused across cycles


def test_orbit_lists_points_in_the_order_met():
    # x first, then the new images of each point met, step by step
    assert orbit(0, [lambda y: (y + 1) % 5]) == [0, 1, 2, 3, 4]
    assert orbit(0, [lambda y: (y + 2) % 6, lambda y: (y + 3) % 6]) == [0, 2, 3, 4, 5, 1]
    assert orbit("a", []) == ["a"]


@pytest.mark.parametrize("spec", ["S:4", "D:12xC:2", "Q:8xS:3"])
def test_orbit_under_generators_is_the_orbit_of_the_closed_group(spec):
    # conjugation: G's kept maps against conjugation by every element;
    # full Aut: its generators against every automorphism found by brute
    # backtracking
    G = group(spec)
    n = G.order
    actions = [
        ([x_to_xg.__getitem__ for _, x_to_xg in G.conjugations],
         [[G.mul(G.mul(G.inverse[g], x), g) for x in range(n)] for g in range(n)]),
        ([a.map.__getitem__ for a in full_automorphism_group(G).gens],
         [a.map for a in brute_automorphisms(G)]),
    ]
    for steps, closed in actions:
        for x in range(n):
            met = orbit(x, steps)
            assert met[0] == x
            assert len(set(met)) == len(met)
            assert set(met) == {images[x] for images in closed}


def test_cycles_match_a_reference_walk():
    rng = random.Random(20)
    for degree in (1, 2, 3, 7, 12):
        for _ in range(40):
            images = list(range(degree))
            rng.shuffle(images)
            expected = []
            seen = set()
            for start in range(degree):
                if start in seen:
                    continue
                cyc = [start]
                while images[cyc[-1]] != start:
                    cyc.append(images[cyc[-1]])
                seen.update(cyc)
                if len(cyc) > 1:
                    expected.append(tuple(cyc))
            assert Permutation(images).cycles() == expected
