import pytest

from moebius.errors import ParseError
from moebius.perm import Permutation, parse_cycles


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
