"""Exact counting formulas over subgroup lattices and class posets.

Generating-tuple counts (direct Moebius sum, class-poset sum, literal
scan), their relative versions over a normal subgroup N, the count for
G/N read off G's own lattice (which decides whether t elements generate
G modulo N), subgroup-tuple counts, the two generation probabilities and
the one search for a generating tuple, behind subgroup names.
Everything returns exact ints or Fractions.  The lattice route is one
Hall sum over the conjugacy classes (`_hall_sum`) and the brute route
one literal scan (`_literal_scan`).  A sum over the class down-sets,
behind omega, the subgroup-tuple sigma, the relative omega and the
class-poset Moebius sums, is one `lattice.push_up` sweep up the class
rows, kept on the poset as one entry per class.
"""

from __future__ import annotations

from fractions import Fraction

from .classposet import ClassPoset
from .errors import BudgetExceeded, LiftNotGenerating, NotInvariant, NotNormal
from .groups import (FiniteGroup, Subgroup, bits, closure, extend_closure, is_normal_mask,
                     quotient_group)
from .lattice import SubgroupLattice, enumerate_subgroups, push_up

DEFAULT_TUPLE_BUDGET = 10 ** 8
# verify's, which runs each brute-force count only when it fits
VERIFY_TUPLE_BUDGET = 10 ** 6


def phi_hall(lattice: SubgroupLattice, t: int) -> int:
    """Number of generating t-tuples of elements: sum of mu(H,G)|H|^t."""
    _require_t(t)
    return _hall_sum(lattice, lambda i: lattice.subgroups[i].order, t)


def _require_t(t: int):
    """Refuses a t below 1, and one past 2^16 before any power is built:
    with |G| <= 2^16 and sigma(G) < 2^18 every count then stays under
    about 2^20 bits."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    if t > 1 << 16:
        raise ValueError("t must be at most 65536")


def _require_t_max(t_max: int):
    """Refuses a t_max below 1, and one whose loop over t = 1 .. t_max
    would raise more than one t's bound in all: the sum of those t,
    t_max (t_max + 1) / 2, is at most 2^16, so t_max <= 361."""
    if t_max < 1:
        raise ValueError("t_max must be a positive integer")
    if t_max * (t_max + 1) > 1 << 17:
        raise ValueError("t_max must be at most 361")


def _hall_sum(lattice: SubgroupLattice, size, t: int) -> int:
    """P. Hall's sum of mu(K, G) size(K)^t over the subgroups K, for a
    size(K) given by subgroup id and constant on conjugacy classes: one
    term per class of the conjugation poset with mu != 0, its
    representative's, counted once per member."""
    mu = lattice.mu_top
    return sum(len(orbit) * mu[r] * size(r) ** t
               for r, orbit in lattice.conjugation.classes if mu[r])


def tuples_exceed(n: int, t: int, budget: int) -> bool:
    """Whether n^t > budget, for n >= 1 and t >= 1, with no power past
    n^L built, L the budget's bit length: for n >= 2 and t >= L, n^t and
    n^L both pass 2^L > budget."""
    return n ** min(t, budget.bit_length()) > budget


def _literal_scan(G: FiniteGroup, items, t: int) -> int:
    """The number of t-tuples of items, each a tuple of elements of G,
    whose joint closure is G, one tuple at a time, depth first from an
    explicit stack of (closure of a prefix, items left to choose).  The
    closure of a closure and an item is kept by (closure, item index),
    and each closure keeps the first witness it is reached by."""
    full = G.full_mask()
    triv = 1 << G.identity
    memo: dict[tuple[int, int], int] = {}
    witness = {triv: ()}

    def step(mask: int, k: int) -> int:
        out = memo.get((mask, k))
        if out is None:
            out, gens = closure(G, items[k], mask, witness[mask])
            witness.setdefault(out, tuple(gens))
            memo[mask, k] = out
        return out

    ks = range(len(items))
    count = 0
    stack = [(triv, t)]
    while stack:
        mask, left = stack.pop()
        if left == 1:
            count += sum([step(mask, k) == full for k in ks])
        else:
            stack.extend([(step(mask, k), left - 1) for k in ks])
    return count


def phi_bruteforce(G: FiniteGroup, t: int,
                   budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Literal scan over all |G|^t element tuples, each element a
    one-element item of `_literal_scan`.  The budget is tested before t,
    so a scan past it is refused by its count whatever t is."""
    n = G.order
    if tuples_exceed(n, t, budget):
        raise BudgetExceeded(f"{n}^{t}", budget, "tuple scan")
    _require_t(t)
    return _literal_scan(G, [(g,) for g in range(n)], t)


# -- class-poset counts ----------------------------------------------------

def omega(poset: ClassPoset, c: int, t: int) -> int:
    """Size of the union over the orbit of H of the t-th cartesian powers."""
    _require_t(t)
    return _downset_sums(poset, ("phi", t), poset.lattice.phi_exact(t))[c]


def _downset_sums(poset: ClassPoset, key: tuple, exact: list[int]) -> list[int]:
    """For every class c, the sum of exact[K] over the subgroups K inside
    some orbit member of c: over the classes d <= c, |orbit(d)| times the
    value at d's representative, pushed up the class rows in one
    `push_up` sweep and kept on the poset under key.  Exact counts are
    invariant under Aut(G), relative ones under the automorphisms fixing
    N, so they are constant on the orbits of any A (of any A fixing N,
    for relative ones)."""
    sums = poset.downset_sums.get(key)
    if sums is None:
        own = [len(orbit) * exact[r] for r, orbit in poset.classes]
        below = push_up(poset.rows(), lambda d, _: own[d])
        sums = poset.downset_sums[key] = [v + b for v, b in zip(own, below)]
    return sums


def psi(poset: ClassPoset, c: int, t: int) -> int:
    """Number of t-tuples generating exactly some orbit member of class c.
    No engine caller: public API, the exact count `omega` sums up."""
    _require_t(t)
    phi_exact = poset.lattice.phi_exact(t)
    return sum(phi_exact[k] for k in poset.orbit(c))


def _class_sum(poset: ClassPoset, sums: list[int]) -> int:
    """The sum over the classes c of mu_A(c, G) times the down-set sum
    sums[c] of some exact counts: those counts at G, by Moebius inversion
    over the class poset."""
    return sum(m * s for m, s in zip(poset.mu_top, sums) if m)


def phi_via_classes(poset: ClassPoset, t: int) -> int:
    """Generating t-tuples via the class-poset Moebius sum."""
    _require_t(t)
    return _class_sum(poset, _downset_sums(poset, ("phi", t), poset.lattice.phi_exact(t)))


# -- relative (lift-counting) versions ---------------------------------------

def phi_quotient(lattice: SubgroupLattice, N: Subgroup, t: int) -> int:
    """phi(G/N, t), the number of generating t-tuples of G/N, for a normal
    N: the sum of mu(K, G)|K : N|^t over the K holding N, the bits of N's
    upeq row, one `_hall_sum` with size |K : N| there and 0 elsewhere
    (both constant on classes, N being normal; a normal N is its own
    class, so its row reads columns of a representative's witness only).
    Each interval [K, G] with N <= K is an interval of
    L(G/N), so this is P. Hall's sum for G/N read off G's own Moebius
    column, with no quotient group built.

    Raises NotNormal for a non-normal N, after the check on t.  The value
    is kept in the lattice's exact-count memo, only for a normal N, so
    each (lattice, N, t) is summed once.
    """
    _require_t(t)
    key = ("quotient", N.mask, t)
    value = lattice._exact.get(key)
    if value is None:
        if not is_normal_mask(lattice.group, N.mask):
            raise NotNormal("relative count needs a normal subgroup")
        subs = lattice.subgroups
        above = lattice.upeq([lattice.index[N.mask]])[0]
        value = lattice._exact[key] = _hall_sum(
            lattice, lambda i: subs[i].order // N.order if above >> i & 1 else 0, t)
    return value


def _require_quotient_generated(lattice: SubgroupLattice, N: Subgroup, t: int):
    """Raises LiftNotGenerating when phi(G/N, t) = 0: no t-tuple of G
    generates G modulo N, so there is no tuple to lift."""
    if not phi_quotient(lattice, N, t):
        raise LiftNotGenerating("no t-tuple generates the group modulo N")


def phi_relative(lattice: SubgroupLattice, N: Subgroup, t: int) -> int:
    """Generating t-tuples over a fixed generating tuple of G/N: the sum
    of mu(H,G)|H meet N|^t over the H with HN = G (P. Hall), the same for
    every such tuple (Gaschuetz's lemma), one `_hall_sum` over the
    lattice's `relative_size(N)`, the size the class route inverts too.

    Raises NotNormal for a non-normal N, and LiftNotGenerating when G/N
    cannot be generated by t elements (`phi_quotient` is 0): there is no
    such tuple to lift.  Only then is the sum taken, N being normal.
    """
    _require_quotient_generated(lattice, N, t)
    return _hall_sum(lattice, lattice.relative_size(N), t)


def _relative_sums(poset: ClassPoset, N: Subgroup, t: int) -> list[int]:
    """The down-set sums of `relative_exact(N, t)` of the poset's lattice,
    once N is known to be normal (NotNormal), G/N to be generated by t
    elements (LiftNotGenerating) and N to be invariant under the acting
    group (NotInvariant), in that order.  The checks run once per (poset,
    N, t): the sums are kept only after all three pass."""
    key = ("relative", N.mask, t)
    if key not in poset.downset_sums:
        _require_quotient_generated(poset.lattice, N, t)
        if len(poset.orbit(poset.class_of_subgroup(N))) != 1:
            raise NotInvariant("N is not invariant under the acting subgroup")
    return _downset_sums(poset, key, poset.lattice.relative_exact(N, t))


def omega_relative(poset: ClassPoset, c: int, N: Subgroup, t: int) -> int:
    """Number of t-tuples in g_1N x .. x g_tN, for any g with <g>N = G,
    whose closure lies inside some orbit member of class c.
    No engine caller: public API, the per-class relative `omega`."""
    return _relative_sums(poset, N, t)[c]


def phi_relative_via_classes(poset: ClassPoset, N: Subgroup, t: int) -> int:
    """Relative count through the class-poset Moebius sum (the classes
    with HN != G add 0)."""
    return _class_sum(poset, _relative_sums(poset, N, t))


# -- the search for a generating tuple ----------------------------------------

def first_generating_tuple(G: FiniteGroup, target: int, t: int):
    """The first tuple of at most t elements, in the order of a
    depth-first search, whose closure is the subgroup with bitset
    `target`, or None: the engine's one search for a generating tuple,
    behind subgroup names.

    A state is the closure S of the tuple so far.  It branches, in
    increasing order, over the elements of the target that its skip set
    misses, each joined to S by `extend_closure`, and the search returns
    as soon as a join is the target.  A state's element list is built
    only when the state is expanded.  Whether S can be completed with r
    more elements depends only on S.  Two prunes cut only branches that
    fail, so the tuple found is the one a search without them finds
    first:

    - dead states: a state that failed is marked dead by (closure,
      depth), and a later state with the same closure and depth is not
      expanded;
    - skip sets: a state's skip set holds its own closure, the closures
      of the sibling joins that already failed, and its parent's skip
      set.  If J = <S, c1> cannot be completed with r more elements,
      then for y in J, <S, c2, y> lies inside <J, c2>, which cannot be
      completed with r - 1 more; so neither can <S, c2, y>, nor any
      state below <S, c2> that takes y (nor <S, y>, which lies in J).

    For t the least number of generators of the target H, the tuple
    found is increasing: were x_i > x_(i+1), swapping them would give an
    earlier tuple that generates H, since x_i lies outside
    <x_1, .., x_(i-1), x_(i+1)> (else t - 1 elements would generate H).
    So it is the lexicographically first generating t-subset of H.
    """
    dead: set[tuple[int, int]] = set()

    def search(mask, chosen, skip):
        elems = list(bits(mask))
        depth = len(chosen) + 1
        for x in bits(target & ~skip):
            if (skip >> x) & 1:         # in a sibling join that failed
                continue
            join = extend_closure(G, mask, elems, chosen, x)
            if join == target:
                return chosen + (x,)
            if depth < t and (join, depth) not in dead:
                found = search(join, chosen + (x,), skip | join)
                if found is not None:
                    return found
                dead.add((join, depth))
            skip |= join
        return None

    start = 1 << G.identity
    if start == target:
        return ()
    return search(start, (), start)


# -- subgroup-tuple counts ---------------------------------------------------

def sigma_tuples(poset: ClassPoset, c: int, t: int) -> int:
    """Number of subgroup t-tuples whose join lies in some orbit member.
    No engine caller: public API, `omega` for subgroup tuples."""
    _require_t(t)
    return _downset_sums(poset, ("gamma", t), poset.lattice.gamma_exact(t))[c]


def gamma_tuples(poset: ClassPoset, c: int, t: int) -> int:
    """Number of subgroup t-tuples whose join is exactly some orbit member.
    No engine caller: public API, `psi` for subgroup tuples."""
    _require_t(t)
    gamma_exact = poset.lattice.gamma_exact(t)
    return sum(gamma_exact[k] for k in poset.orbit(c))


def phi_star(poset: ClassPoset, t: int) -> int:
    """Subgroup t-tuples generating G, via the class-poset Moebius sum."""
    _require_t(t)
    return _class_sum(poset, _downset_sums(poset, ("gamma", t), poset.lattice.gamma_exact(t)))


def phi_star_hall(lattice: SubgroupLattice, t: int) -> int:
    """Subgroup t-tuples generating G, via the plain lattice sum: the
    `_hall_sum` of sigma(K)^t.  At t = 1 it is 1, the count of G alone."""
    _require_t(t)
    return _hall_sum(lattice, lattice.sigma, t)


def phi_star_bruteforce(lattice: SubgroupLattice, t: int,
                        budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Literal scan over all sigma(G)^t subgroup tuples, each subgroup
    the `_literal_scan` item of its witness, since <H, K> is the closure
    of H's witness and K's.  The budget is tested before t, as in
    `phi_bruteforce`."""
    nsub = len(lattice.subgroups)
    if tuples_exceed(nsub, t, budget):
        raise BudgetExceeded(f"{nsub}^{t}", budget, "subgroup tuple scan")
    _require_t(t)
    return _literal_scan(lattice.group, [s.gens for s in lattice.subgroups], t)


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
    """Lattice of G/Frattini(G), for the P(G,t) = P(G/Phi,t) identity.
    No engine caller: public API for that identity, which `verify` lacks."""
    G = lattice.group
    phi_sub = lattice.frattini()
    Q, _ = quotient_group(G, phi_sub)
    return enumerate_subgroups(Q)
