import json
from fractions import Fraction

import pytest

from helpers import PSU33_SPEC, analyzer, group, lattice
from moebius import cli
from moebius.errors import EngineError
from moebius.groups import is_solvable
from moebius.mulambda import MuLambdaAnalyzer

# the six A5 beta vectors, keyed by representative order of the C* class
A5_BETA_BY_ORDER = {
    12: (24, 84, 264, 804, 2424, 7284),
    6: (24, 54, 114, 234, 474, 954),
    10: (20, 50, 110, 230, 470, 950),
    3: (39, 99, 279, 819, 2439, 7299),
    2: (44, 74, 134, 254, 494, 974),
    1: (59, 59, 59, 59, 59, 59),
}


@pytest.mark.parametrize("spec", [
    "S:4", "A:4", "S:3", "D:7", "Q:8", "C:12", "D:12", "S:3xC:4",
    "C:2xA:4", "S:4xC:2", "C:3xC:3", "D:4xC:2",
])
def test_solvable_groups_pass(spec):
    assert is_solvable(group(spec))
    assert analyzer(spec).report().passed


@pytest.mark.parametrize("spec", ["A:5", "S:5"])
def test_minimal_nonsolvable_pass(spec):
    assert not is_solvable(group(spec))
    assert analyzer(spec).report().passed


def test_mu_star_abelian_equals_mu():
    an = analyzer("C:12")
    for r in an.rows:
        assert r.mu_star == r.mu == r.lam


def test_mu_star_function_wrapper():
    lat = lattice("S:4")
    an = MuLambdaAnalyzer(group("S:4"), lat)
    c = an.poset.class_of_subgroup(lat.subgroups[lat.trivial_id])
    assert an.rows[c].mu_star == -12  # |A4| * lambda(1,G) = 12 * -1


def test_report_rows_s4():
    an = analyzer("S:4")
    rows = {(r.order, r.lam): r for r in an.rows}
    r = rows[(1, -1)]
    assert r.mu == -12 and r.index_factor == 12 and r.mu_star == -12
    # the normal four-group: N_{A4}(K) = A4, K meet A4 = K
    r = rows[(4, 1)]
    assert r.mu == 3 and r.index_factor == 3 and r.mu_star == 3


def test_t_set_and_tau_empty_for_passing_groups():
    for spec in ("S:4", "A:5", "Q:8"):
        an = analyzer(spec)
        assert an.report().violations == ()
        assert an.tau_spectrum() == {}


def test_psu33_fails_in_four_classes(capsys):
    """PSU(3,3), the one group here that fails the property: the violating
    rows, their tau spectrum, the restricted zero sum and the CLI verdict."""
    an = analyzer(PSU33_SPEC)
    report = an.report()
    assert {(r.mu, r.mu_star, r.order, r.normalizer_order)
            for r in report.rows if not r.ok} == \
        {(0, -48, 2, 96), (0, 3, 6, 18), (-4, 0, 8, 32), (2, 1, 24, 24)}
    assert report.violations == tuple(r.class_id for r in report.rows if not r.ok)
    assert an.tau_spectrum() == {2: Fraction(1, 2), 6: Fraction(-1, 6),
                                 8: Fraction(-1, 8), 24: Fraction(1, 24)}
    assert an.zero_sum_check(1).violation_sum == 0
    assert an.zero_sum_check(2).violation_sum == 12
    assert cli.main(["check-mu-lambda", PSU33_SPEC]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: FAIL"


def test_beta_vectors_a5():
    an = analyzer("A:5")
    ids = an.cstar_classes()
    orders = [an.poset.rep(c).order for c in ids]
    assert sorted(orders, reverse=True) == orders  # descending class order
    assert set(orders) == set(A5_BETA_BY_ORDER)
    for t in range(1, 7):
        vec = an.beta_vector(t)
        for c, entry in zip(vec.class_ids, vec.entries):
            assert entry == A5_BETA_BY_ORDER[an.poset.rep(c).order][t - 1]


def test_beta_rank_values():
    assert analyzer("A:5").beta_span_rank(6) == 3
    assert analyzer("S:3").beta_span_rank(5) == 1
    assert analyzer("C:12").beta_span_rank(4) == 0


def test_beta_s3_constant():
    an = analyzer("S:3")
    for t in range(1, 6):
        assert an.beta_vector(t).entries == (0, 2, 2)


def test_beta_vector_rejects_a_fraction(monkeypatch):
    an = MuLambdaAnalyzer(group("S:3"), lattice("S:3"))
    monkeypatch.setattr(an, "beta", lambda c, t: Fraction(1, 2))
    with pytest.raises(EngineError, match="not an integer"):
        an.beta_vector(1)
    # and the refused vector was not kept
    monkeypatch.undo()
    assert an.beta_vector(1).entries == (0, 2, 2)


def test_beta_vectors_are_built_once_per_t(monkeypatch, capsys):
    # beta --rank prints the vectors and their rank, and builds each once
    built = []
    original = MuLambdaAnalyzer.beta

    def counted(self, c, t):
        built.append(t)
        return original(self, c, t)

    monkeypatch.setattr(MuLambdaAnalyzer, "beta", counted)
    assert cli.main(["beta", "A:5", "--t-max", "3", "--rank"]) == 0
    ranked = json.loads(capsys.readouterr().out)
    n = len(ranked["classes"])
    assert sorted(built) == [t for t in (1, 2, 3) for _ in range(n)]
    assert ranked["rank"] == 3


@pytest.mark.parametrize("spec", ["C:12", "Q:8", "C:2xC:2xC:2", "C:9"])
def test_beta_zero_for_nilpotent(spec):
    an = analyzer(spec)
    for t in (1, 2, 3):
        assert set(an.beta_vector(t).entries) <= {0}


@pytest.mark.parametrize("spec", ["S:4", "A:5", "S:3", "A:4", "D:7", "C:12"])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_beta_nonnegative_and_zero_iff_derived_below(spec, t):
    an = analyzer(spec)
    dmask = an.derived.mask
    vec = an.beta_vector(t)
    for c, b in zip(vec.class_ids, vec.entries):
        assert b >= 0
        contains = dmask & ~an.poset.rep(c).mask == 0
        assert (b == 0) == contains


@pytest.mark.parametrize("spec", ["S:4", "A:5", "S:3", "Q:8", "D:12"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_zero_sum_identity_for_passing_groups(spec, t):
    z = analyzer(spec).zero_sum_check(t)
    assert z.consistent
    assert z.is_zero
    assert z.violation_sum == 0


def test_beta_solves_the_lambda_equation():
    for spec in ("A:5", "S:4", "S:3"):
        an = analyzer(spec)
        for t in (1, 2, 3):
            vec = an.beta_vector(t)
            assert sum(an.rows[c].lam * b for c, b in zip(vec.class_ids, vec.entries)) == 0


def test_classifier_verdicts():
    v = analyzer("S:3").frobenius_beta_classifier()
    assert v.constant and not v.nilpotent and v.frobenius_primitive_cyclic and v.consistent
    v = analyzer("C:12").frobenius_beta_classifier()
    assert v.constant and v.nilpotent and v.consistent
    v = analyzer("A:4").frobenius_beta_classifier()
    assert v.constant and v.frobenius_primitive_cyclic and v.consistent
    v = analyzer("D:5").frobenius_beta_classifier()
    assert v.constant and v.frobenius_primitive_cyclic and v.consistent
    v = analyzer("S:4").frobenius_beta_classifier()
    assert not v.constant and not v.nilpotent \
        and not v.frobenius_primitive_cyclic and v.consistent
    # D6 = C6 x| C2 is Frobenius-like but its complement intersects a
    # conjugate nontrivially? no: D6 has center of order 2, not Frobenius
    v = analyzer("D:6").frobenius_beta_classifier()
    assert v.consistent


@pytest.mark.parametrize("spec", ["S:4", "S:3xC:2", "C:2xA:4", "S:3xC:3"])
def test_solvable_extension_consistency(spec):
    """Groups with a solvable normal subgroup whose quotient passes also pass."""
    assert analyzer(spec).report().passed


def test_check_mu_lambda_wrapper():
    report = MuLambdaAnalyzer(group("S:4"), lattice("S:4")).report()
    assert report.passed and len(report.rows) == 11


def test_tau_question_scan_shape(capsys):
    assert cli.main(["tau", "S:4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t_set_size"] == 0 and out["tau_all_zero"]
