"""Exact counting formulas over subgroup lattices and class posets.

Generating-tuple counts (direct Moebius sum, class-poset sum, literal
scan), their relative versions over a normal subgroup, subgroup-tuple
counts, and the two generation probabilities.  Everything returns exact
ints or Fractions.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .classposet import ClassPoset
from .errors import BudgetExceeded, LiftNotGenerating, NotInvariant, NotNormal
from .groups import (FiniteGroup, Subgroup, bits, closure_mask, extend_closure,
                     is_normal_mask, quotient_group)
from .lattice import SubgroupLattice, enumerate_subgroups

DEFAULT_TUPLE_BUDGET = 10 ** 8
# inclusion-exclusion sums 2^k - 1 terms over an orbit of k subgroups
INCLUSION_EXCLUSION_MAX_ORBIT = 20


def phi_hall(lattice: SubgroupLattice, t: int) -> int:
    """Number of generating t-tuples of elements: sum of mu(H,G)|H|^t."""
    _require_t(t)
    mu = lattice.mu_top
    return sum(m * s.order ** t
               for m, s in zip(mu, lattice.subgroups) if m)


def _require_t(t: int):
    if t < 1:
        raise ValueError("t must be a positive integer")


class _ExtendMemo:
    """Memoized subgroup-extension transitions (mask, element) -> mask."""

    def __init__(self, G: FiniteGroup):
        self.G = G
        self.witness = {1 << G.identity: ()}
        self.memo: dict[tuple[int, int], int] = {}

    def step(self, mask: int, g: int) -> int:
        key = (mask, g)
        out = self.memo.get(key)
        if out is None:
            gens = self.witness[mask]
            out = extend_closure(self.G, mask, list(bits(mask)), gens, g)
            self.witness.setdefault(out, gens + (g,))
            self.memo[key] = out
        return out


def phi_bruteforce(G: FiniteGroup, t: int,
                   budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Literal scan over all |G|^t element tuples."""
    _require_t(t)
    n = G.order
    if n ** t > budget:
        raise BudgetExceeded(n ** t, budget, "tuple scan")
    full = G.full_mask()
    ext = _ExtendMemo(G)
    triv = 1 << G.identity

    def rec(mask: int, depth: int) -> int:
        if depth == t:
            return 1 if mask == full else 0
        step = ext.step
        return sum(rec(step(mask, g), depth + 1) for g in range(n))

    return rec(triv, 0)


def can_generate(G: FiniteGroup, t: int) -> bool:
    """Whether some t-tuple of elements generates G."""
    _require_t(t)
    full = G.full_mask()
    if G.order == 1:
        return True
    ext = _ExtendMemo(G)
    seen = set()

    def rec(mask: int, remaining: int) -> bool:
        if mask == full:
            return True
        if remaining == 0 or (mask, remaining) in seen:
            return False
        seen.add((mask, remaining))
        return any(rec(ext.step(mask, g), remaining - 1)
                   for g in range(G.order) if not (mask >> g) & 1)

    return rec(1 << G.identity, t)


# -- class-poset counts ----------------------------------------------------

def _downset_ids(poset: ClassPoset, c: int) -> list[int]:
    """Lattice ids K with K contained in some orbit member of class c,
    ascending: the orbit members and their lattice down-sets."""
    out = poset._downset.get(c)
    if out is None:
        down = poset.lattice.down
        ids = set(poset.orbit(c))
        for m in poset.orbit(c):
            ids.update(down[m])
        out = poset._downset[c] = sorted(ids)
    return out


def omega(poset: ClassPoset, c: int, t: int) -> int:
    """Size of the union over the orbit of H of the t-th cartesian powers."""
    _require_t(t)
    phi_exact = poset.lattice.phi_exact(t)
    return sum(phi_exact[k] for k in _downset_ids(poset, c))


def omega_inclusion_exclusion(poset: ClassPoset, c: int, t: int) -> int:
    """Independent cross-check of omega via inclusion-exclusion on the orbit."""
    _require_t(t)
    subs = poset.lattice.subgroups
    omasks = [subs[i].mask for i in poset.orbit(c)]
    k = len(omasks)
    if k > INCLUSION_EXCLUSION_MAX_ORBIT:
        raise ValueError(f"orbit of size {k} too large for inclusion-exclusion")
    total = 0
    for j in range(1, 1 << k):
        inter = -1
        jj = j
        idx = 0
        nbits = 0
        while jj:
            if jj & 1:
                inter &= omasks[idx]
                nbits += 1
            jj >>= 1
            idx += 1
        card = inter.bit_count() ** t
        total += card if nbits % 2 else -card
    return total


def psi(poset: ClassPoset, c: int, t: int) -> int:
    """Number of t-tuples generating exactly some orbit member of class c."""
    _require_t(t)
    phi_exact = poset.lattice.phi_exact(t)
    return sum(phi_exact[k] for k in poset.orbit(c))


def phi_via_classes(poset: ClassPoset, t: int) -> int:
    """Generating t-tuples via the class-poset Moebius sum."""
    _require_t(t)
    mu = poset.mu_top
    return sum(mu[c] * omega(poset, c, t)
               for c in range(len(poset.classes)) if mu[c])


# -- relative (lift-counting) versions ---------------------------------------

def phi_relative(lattice: SubgroupLattice, N: Subgroup, t: int) -> int:
    """Generating t-tuples over a fixed generating tuple of G/N.

    When G/N cannot be generated by t elements there is no such tuple to
    lift; the engine warns and returns 0.
    """
    _require_t(t)
    G = lattice.group
    if not is_normal_mask(G, N.mask):
        raise NotNormal("relative count needs a normal subgroup")
    if not _quotient_generable(lattice, N, t):
        warnings.warn("quotient needs more generators than t; returning 0",
                      stacklevel=2)
        return 0
    mu = lattice.mu_top
    gorder = G.order
    total = 0
    for m, s in zip(mu, lattice.subgroups):
        if not m:
            continue
        inter = (s.mask & N.mask).bit_count()
        if s.order * N.order == gorder * inter:
            total += m * inter ** t
    return total


def _quotient_generable(lattice: SubgroupLattice, N: Subgroup, t: int) -> bool:
    if N.order == lattice.group.order:
        return True
    if N.order == 1:
        return can_generate(lattice.group, t)
    Q, _ = quotient_group(lattice.group, N)
    return can_generate(Q, t)


def generating_lift(lattice: SubgroupLattice, N: Subgroup, t: int) -> tuple[int, ...]:
    """Some t-tuple of elements with <tuple> N = G, in lattice order."""
    _require_t(t)
    G = lattice.group
    ext = _ExtendMemo(G)
    nmask = N.mask
    dead: set[tuple[int, int]] = set()

    def rec(mask, chosen):
        if _product_covers(G, mask, nmask):
            return tuple(chosen) + (G.identity,) * (t - len(chosen))
        if len(chosen) == t or (mask, len(chosen)) in dead:
            return None
        for g in range(G.order):
            if (mask >> g) & 1:
                continue
            got = rec(ext.step(mask, g), chosen + [g])
            if got is not None:
                return got
        dead.add((mask, len(chosen)))
        return None

    got = rec(1 << G.identity, [])
    if got is None:
        raise LiftNotGenerating("no t-tuple generates the group modulo N")
    return got


def _product_covers(G: FiniteGroup, a_mask: int, n_mask: int) -> bool:
    a = a_mask.bit_count()
    n = n_mask.bit_count()
    return a * n == G.order * (a_mask & n_mask).bit_count()


def relative_exact_counts(poset: ClassPoset, N: Subgroup, lifts, t: int,
                          budget: int = DEFAULT_TUPLE_BUDGET) -> dict[int, int]:
    """Per-class counts of tuples (n_1..n_t) in N^t by the class of
    <g_1 n_1, ..., g_t n_t>."""
    _require_t(t)
    lat = poset.lattice
    G = lat.group
    if not is_normal_mask(G, N.mask):
        raise NotNormal("relative count needs a normal subgroup")
    if poset.aut.mask_orbit(N.mask) != {N.mask}:
        raise NotInvariant("N is not invariant under the acting subgroup")
    lifts = tuple(lifts)
    if len(lifts) != t:
        raise ValueError("need exactly t lift elements")
    lift_mask = closure_mask(G, lifts)
    if not _product_covers(G, lift_mask, N.mask):
        raise LiftNotGenerating("the fixed tuple does not generate modulo N")
    if N.order ** t > budget:
        raise BudgetExceeded(N.order ** t, budget, "relative tuple scan")
    n_elems = N.elements()
    mt = G.table
    n = G.order
    ext = _ExtendMemo(G)
    counts: dict[int, int] = {}
    class_of = poset.class_of
    index = lat.index

    def rec(mask, depth):
        if depth == t:
            c = class_of[index[mask]]
            counts[c] = counts.get(c, 0) + 1
            return
        g = lifts[depth]
        base = g * n
        for x in n_elems:
            rec(ext.step(mask, mt[base + x]), depth + 1)

    rec(1 << G.identity, 0)
    return counts


def omega_relative(poset: ClassPoset, c: int, N: Subgroup, lifts, t: int,
                   budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Number of N-tuples whose shifted closure lands inside some orbit
    member of class c."""
    counts = relative_exact_counts(poset, N, lifts, t, budget)
    return sum(v for k, v in counts.items() if poset.leq(k, c))


def phi_relative_via_classes(poset: ClassPoset, N: Subgroup, lifts, t: int,
                             budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Relative count through the class-poset Moebius sum over classes
    with HN = G."""
    counts = relative_exact_counts(poset, N, lifts, t, budget)
    lat = poset.lattice
    G = lat.group
    mu = poset.mu_top
    total = 0
    for c in range(len(poset.classes)):
        if not mu[c]:
            continue
        if not _product_covers(G, poset.rep(c).mask, N.mask):
            continue
        w = sum(v for k, v in counts.items() if poset.leq(k, c))
        total += mu[c] * w
    return total


# -- subgroup-tuple counts ---------------------------------------------------

def sigma_tuples(poset: ClassPoset, c: int, t: int) -> int:
    """Number of subgroup t-tuples whose join lies in some orbit member."""
    _require_t(t)
    gamma_exact = poset.lattice.gamma_exact(t)
    return sum(gamma_exact[k] for k in _downset_ids(poset, c))


def gamma_tuples(poset: ClassPoset, c: int, t: int) -> int:
    """Number of subgroup t-tuples whose join is exactly some orbit member."""
    _require_t(t)
    gamma_exact = poset.lattice.gamma_exact(t)
    return sum(gamma_exact[k] for k in poset.orbit(c))


def phi_star(poset: ClassPoset, t: int) -> int:
    """Subgroup t-tuples generating G, via the class-poset Moebius sum."""
    _require_t(t)
    mu = poset.mu_top
    return sum(mu[c] * sigma_tuples(poset, c, t)
               for c in range(len(poset.classes)) if mu[c])


def phi_star_hall(lattice: SubgroupLattice, t: int) -> int:
    """Subgroup t-tuples generating G, via the plain lattice sum."""
    _require_t(t)
    mu = lattice.mu_top
    return sum(m * lattice.sigma(i) ** t for i, m in enumerate(mu) if m)


def phi_star_bruteforce(lattice: SubgroupLattice, t: int,
                        budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Literal scan over all sigma(G)^t subgroup tuples."""
    _require_t(t)
    nsub = len(lattice.subgroups)
    if nsub ** t > budget:
        raise BudgetExceeded(nsub ** t, budget, "subgroup tuple scan")
    order = lattice.group.order
    subs = lattice.subgroups
    join = lattice.join

    def rec(h, depth):
        if depth == t:
            return 1 if h.order == order else 0
        return sum(rec(join(h, k), depth + 1) for k in subs)

    return rec(subs[lattice.trivial_id], 0)


# -- probabilities -----------------------------------------------------------

def gen_probabilities(lattice: SubgroupLattice, t: int) -> tuple[Fraction, Fraction]:
    """(P, P*): probability of generating G with t elements / t subgroups."""
    _require_t(t)
    G = lattice.group
    p = Fraction(phi_hall(lattice, t), G.order ** t)
    pstar = Fraction(phi_star_hall(lattice, t),
                     lattice.sigma(lattice.top_id) ** t)
    return p, pstar


def frattini_quotient_lattice(lattice: SubgroupLattice):
    """Lattice of G/Frattini(G), for the P(G,t) = P(G/Phi,t) identity."""
    G = lattice.group
    phi_sub = lattice.frattini()
    Q, _ = quotient_group(G, phi_sub)
    return enumerate_subgroups(Q)
