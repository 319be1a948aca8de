"""The (mu, lambda)-property machinery.

For a group G with derived subgroup G', compares the lattice Moebius
value mu(H,G) against mu*(H,G) = |N_{G'}(H) : G' meet H| * lambda(H,G)
class by class, and evaluates everything built on top of the comparison:
the violation set T and its tau spectrum, the alpha / beta quantities,
beta vectors over the classes with nonzero lambda, their rank, and the
two equivalent zero-sum identities satisfied exactly when the property
holds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import counting
from .classposet import lambda_poset, minimal_normal_subgroup_ids
from .errors import EngineError
from .groups import FiniteGroup, commutator_subgroup, is_nilpotent, is_normal_mask
from .lattice import SubgroupLattice, enumerate_subgroups
from .tables import display_key


class ClassRow(NamedTuple):
    class_id: int
    rep_id: int
    order: int
    mu: int
    lam: int
    index_factor: int
    mu_star: int
    normalizer_order: int

    @property
    def ok(self) -> bool:
        return self.mu == self.mu_star


class MuLambdaReport(NamedTuple):
    group: str
    rows: tuple[ClassRow, ...]
    violations: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


class BetaVector(NamedTuple):
    t: int
    class_ids: tuple[int, ...]
    entries: tuple[int, ...]


class ZeroSumResult(NamedTuple):
    """Exact evaluation of the two equivalent consequence identities."""
    t: int
    full_sum: Fraction          # sum of lambda * (alpha - omega) over all classes
    violation_sum: Fraction     # sum of (mu - mu*)|H|^t / |N(H)| over T
    consistent: bool            # full_sum == -|G| * violation_sum, always expected

    @property
    def is_zero(self) -> bool:
        return self.full_sum == 0


class BetaSweepVerdict(NamedTuple):
    constant: bool
    nilpotent: bool
    frobenius_primitive_cyclic: bool

    @property
    def consistent(self) -> bool:
        return self.constant == (self.nilpotent or self.frobenius_primitive_cyclic)


class MuLambdaAnalyzer:
    """Shared context: lattice, conjugacy-class poset, derived subgroup."""

    def __init__(self, G: FiniteGroup, lattice: SubgroupLattice | None = None):
        self.group = G
        self.lattice = lattice if lattice is not None else enumerate_subgroups(G)
        self.poset = lambda_poset(G, self.lattice)
        self.derived = commutator_subgroup(G)
        self._beta_vectors: dict[int, BetaVector] = {}

    # -- report -------------------------------------------------------------

    @cached_property
    def rows(self) -> tuple[ClassRow, ...]:
        """One row per class, read at its representative H: mu(H, G),
        lambda(H, G), f = |N_{G'}(H) : G' meet H|, mu* = f * lambda and
        |N_G(H)|.  Every per-class value is read off these rows."""
        lat, dmask, lam = self.lattice, self.derived.mask, self.poset.mu_top
        rows = []
        for c, (rep_id, _) in enumerate(self.poset.classes):
            h = lat.subgroups[rep_id]
            nmask = lat.normalizer_mask(rep_id)
            factor = (nmask & dmask).bit_count() // (h.mask & dmask).bit_count()
            rows.append(ClassRow(c, rep_id, h.order, lat.mu_top[rep_id], lam[c],
                                 factor, factor * lam[c], nmask.bit_count()))
        return tuple(rows)

    def report(self) -> MuLambdaReport:
        violations = tuple(r.class_id for r in self.rows if not r.ok)
        return MuLambdaReport(group=self.group.spec or repr(self.group),
                              rows=self.rows, violations=violations)

    def tau_spectrum(self) -> dict[int, Fraction]:
        """tau(n), the sum of (mu - mu*) / |N_G(H)| over the violating
        classes of order n, for each order n of a violating class,
        ascending."""
        tau: dict[int, Fraction] = {}
        for r in self.rows:
            if not r.ok:
                tau[r.order] = tau.get(r.order, 0) + Fraction(r.mu - r.mu_star,
                                                               r.normalizer_order)
        return dict(sorted(tau.items()))

    # -- alpha / beta ---------------------------------------------------------

    def alpha(self, c: int, t: int) -> Fraction:
        """|H|^(t-1) |G| |G'H| / |G'N_G(H)| at the representative, read off
        its row as |H|^t |G| f / |N_G(H)|, since |G'H| / |G'N_G(H)| =
        |H| f / |N_G(H)|."""
        if t < 1:
            raise ValueError("t must be a positive integer")
        r = self.rows[c]
        return Fraction(r.order ** t * self.group.order * r.index_factor,
                        r.normalizer_order)

    def beta(self, c: int, t: int) -> Fraction:
        return self.alpha(c, t) - counting.omega(self.poset, c, t)

    def cstar_classes(self) -> list[int]:
        """Proper classes with nonzero lambda, largest representatives first."""
        subs, top = self.lattice.subgroups, self.poset.top
        rows = sorted((r for r in self.rows if r.class_id != top and r.lam),
                      key=lambda r: display_key(subs[r.rep_id]))
        return [r.class_id for r in rows]

    def beta_vector(self, t: int) -> BetaVector:
        """beta(c, t) over `cstar_classes`, built once per t; a non-integer
        entry raises EngineError and keeps nothing."""
        vec = self._beta_vectors.get(t)
        if vec is None:
            ids = self.cstar_classes()
            entries = []
            for c in ids:
                b = self.beta(c, t)
                if b.denominator != 1:
                    raise EngineError(f"beta of class {c} at t={t} is {b}, not an integer")
                entries.append(int(b))
            vec = self._beta_vectors[t] = BetaVector(t=t, class_ids=tuple(ids),
                                                     entries=tuple(entries))
        return vec

    def beta_span_rank(self, t_max: int) -> int:
        """Rank over the rationals of {beta_1 .. beta_t_max}."""
        if t_max < 1:
            raise ValueError("t_max must be a positive integer")
        rows = [[Fraction(x) for x in self.beta_vector(t).entries]
                for t in range(1, t_max + 1)]
        return _rank(rows)

    # -- the consequence identities -------------------------------------------

    def zero_sum_check(self, t: int) -> ZeroSumResult:
        full = sum((r.lam * self.beta(r.class_id, t) for r in self.rows if r.lam),
                   Fraction(0))
        viol = sum((Fraction((r.mu - r.mu_star) * r.order ** t, r.normalizer_order)
                    for r in self.rows if not r.ok), Fraction(0))
        consistent = full == -self.group.order * viol
        return ZeroSumResult(t=t, full_sum=full, violation_sum=viol,
                             consistent=consistent)

    # -- structural classifier --------------------------------------------------

    def frobenius_beta_classifier(self, t_max: int = 6) -> BetaSweepVerdict:
        vectors = {self.beta_vector(t).entries for t in range(1, t_max + 1)}
        constant = len(vectors) == 1
        return BetaSweepVerdict(
            constant=constant,
            nilpotent=is_nilpotent(self.group),
            frobenius_primitive_cyclic=self._frobenius_primitive_cyclic(),
        )

    def _frobenius_primitive_cyclic(self) -> bool:
        """G = V x| H with H maximal cyclic meeting its conjugates trivially
        and V a minimal normal subgroup (tested on the lattice)."""
        lat = self.lattice
        G = self.group
        triv = 1 << G.identity
        full = G.full_mask()
        orders = G.element_orders
        minimal = set(minimal_normal_subgroup_ids(lat))
        for m in lat.maximals:
            msub = lat.subgroups[m]
            if is_normal_mask(G, msub.mask):
                continue
            if not any(orders[x] == msub.order for x in msub.elements()):
                continue
            orbit = lat.conjugacy_orbit(m)
            if any(lat.subgroups[j].mask & msub.mask != triv
                   for j in orbit if j != m):
                continue
            union = 0
            for j in orbit:
                union |= lat.subgroups[j].mask
            kernel = (full & ~union) | triv
            if kernel.bit_count() * msub.order == G.order and lat.index.get(kernel) in minimal:
                return True
        return False


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank

