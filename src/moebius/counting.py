"""Exact counting formulas over subgroup lattices and class posets.

Generating-tuple counts (direct Moebius sum, class-poset sum, literal
scan), their relative versions over a normal subgroup, subgroup-tuple
counts, and the two generation probabilities.  Everything returns exact
ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .classposet import ClassPoset
from .errors import BudgetExceeded, LiftNotGenerating, NotInvariant, NotNormal
from .groups import (FiniteGroup, Subgroup, bits, closure, coset_map, extend_closure,
                     is_normal_mask, product_covers, quotient_group, subgroup_image_mask)
from .lattice import SubgroupLattice, enumerate_subgroups

DEFAULT_TUPLE_BUDGET = 10 ** 8


def phi_hall(lattice: SubgroupLattice, t: int) -> int:
    """Number of generating t-tuples of elements: sum of mu(H,G)|H|^t."""
    _require_t(t)
    mu = lattice.mu_top
    return sum(m * s.order ** t
               for m, s in zip(mu, lattice.subgroups) if m)


def _require_t(t: int):
    if t < 1:
        raise ValueError("t must be a positive integer")


def tuples_exceed(n: int, t: int, budget: int) -> bool:
    """Whether n^t > budget, for n >= 1 and t >= 1, with no power past
    n^L built, L the budget's bit length: for n >= 2 and t >= L, n^t and
    n^L both pass 2^L > budget."""
    return n ** min(t, budget.bit_length()) > budget


def _literal_scan(start, items, step, t: int, done) -> int:
    """The number of t-tuples of items whose fold from start by step
    passes done, one tuple at a time, depth first from an explicit stack
    of (fold of a prefix, items left to choose)."""
    count = 0
    stack = [(start, t)]
    while stack:
        x, left = stack.pop()
        if left == 1:
            count += sum([done(step(x, y)) for y in items])
        else:
            stack.extend([(step(x, y), left - 1) for y in items])
    return count


def phi_bruteforce(G: FiniteGroup, t: int,
                   budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Literal scan over all |G|^t element tuples."""
    _require_t(t)
    n = G.order
    if tuples_exceed(n, t, budget):
        raise BudgetExceeded(f"{n}^{t}", budget, "tuple scan")
    triv = 1 << G.identity
    # (closure, element) -> closure of the two, and a witness per closure
    memo: dict[tuple[int, int], int] = {}
    witness = {triv: ()}

    def step(mask: int, g: int) -> int:
        out = memo.get((mask, g))
        if out is None:
            out, gens = closure(G, (g,), mask, witness[mask])
            witness.setdefault(out, tuple(gens))
            memo[mask, g] = out
        return out

    return _literal_scan(triv, range(n), step, t, G.full_mask().__eq__)


# -- class-poset counts ----------------------------------------------------

def omega(poset: ClassPoset, c: int, t: int) -> int:
    """Size of the union over the orbit of H of the t-th cartesian powers."""
    _require_t(t)
    return _downset_sum(poset, c, poset.lattice.phi_exact(t))


def _downset_sum(poset: ClassPoset, c: int, exact: list[int]) -> int:
    """The sum of exact[K] over the subgroups K inside some orbit member
    of class c: over the classes d <= c, |orbit(d)| times the value at d's
    representative.  Exact counts are invariant under Aut(G), relative
    ones under the automorphisms fixing N, so they are constant on the
    orbits of any A (of any A fixing N, for relative ones)."""
    classes = poset.classes
    return sum([len(classes[d][1]) * exact[classes[d][0]] for d in poset.downs()[c]])


def psi(poset: ClassPoset, c: int, t: int) -> int:
    """Number of t-tuples generating exactly some orbit member of class c.
    No engine caller: public API, the exact count `omega` sums up."""
    _require_t(t)
    phi_exact = poset.lattice.phi_exact(t)
    return sum(phi_exact[k] for k in poset.orbit(c))


def _class_sum(poset: ClassPoset, exact: list[int]) -> int:
    """The sum over the classes c of mu_A(c, G) times the down-set sum of
    exact at c: exact at G, by Moebius inversion over the class poset."""
    mu = poset.mu_top
    return sum(mu[c] * _downset_sum(poset, c, exact)
               for c in range(len(poset.classes)) if mu[c])


def phi_via_classes(poset: ClassPoset, t: int) -> int:
    """Generating t-tuples via the class-poset Moebius sum."""
    _require_t(t)
    return _class_sum(poset, poset.lattice.phi_exact(t))


# -- relative (lift-counting) versions ---------------------------------------

def phi_relative(lattice: SubgroupLattice, N: Subgroup, t: int) -> int:
    """Generating t-tuples over a fixed generating tuple of G/N: the sum
    of mu(H,G)|H meet N|^t over the H with HN = G (P. Hall), the same for
    every such tuple (Gaschuetz's lemma).

    Raises NotNormal for a non-normal N, and LiftNotGenerating when G/N
    cannot be generated by t elements (`generating_lift` finds no lift):
    there is no such tuple to lift.
    """
    generating_lift(lattice, N, t)
    G = lattice.group
    return sum(m * (s.mask & N.mask).bit_count() ** t
               for m, s in zip(lattice.mu_top, lattice.subgroups)
               if m and product_covers(G, s.mask, N.mask))


def generating_lift(lattice: SubgroupLattice, N: Subgroup, t: int) -> tuple[int, ...]:
    """Some t-tuple of elements with <tuple> N = G, for a normal N: the
    first tuple `first_generating_tuple` finds over the cosets of N,
    padded with the identity.  Any lift serves the relative count, which
    does not depend on the lifted tuple of G/N (Gaschuetz's lemma).
    Raises LiftNotGenerating when no t-tuple generates G modulo N.
    """
    _require_t(t)
    G = lattice.group
    if not is_normal_mask(G, N.mask):
        raise NotNormal("relative count needs a normal subgroup")
    cosets = coset_map(G, N)
    got = first_generating_tuple(G, (1 << len(cosets[1])) - 1, t, cosets)
    if got is None:
        raise LiftNotGenerating("no t-tuple generates the group modulo N")
    return got + (G.identity,) * (t - len(got))


def first_generating_tuple(G: FiniteGroup, target: int, t: int,
                           cosets: tuple[list[int], list[int]] | None = None):
    """The first tuple of at most t elements, in the order of a
    depth-first search, whose closure has image `target`, or None: the
    engine's one search for a generating tuple.

    Given `cosets` = `coset_map(G, N)` for a normal N, the image of a
    closure is the bitset of the ids of the cosets of N it meets, and a
    target of every coset asks for a tuple that generates G modulo N; no
    quotient group is built.  With no cosets (N = 1) the image is the
    closure itself, and the target is the bitset of a subgroup H.  A
    state is the closure S of the tuple so far.  It branches, in
    increasing order, over the least element of each coset in the target
    that its skip set misses, joined to S by `extend_closure`, and the
    search returns as soon as a join's image is the target.  A state's
    element list is built only when the state is expanded.  Whether S
    can be completed with r more elements depends only on its image,
    since the image of <S, y> is <image(S), yN>.  Two prunes cut only
    branches that fail, so the tuple found is the one a search without
    them finds first:

    - dead states: a state that failed is marked dead by (image, depth),
      and a later state with the same image and depth is not expanded;
    - skip sets: a state's skip set holds its own image, the images of
      the sibling joins that already failed, and its parent's skip set.
      If J = <S, c1> cannot be completed with r more elements, then for
      y with its coset in J's image, <S, c2, y> has its image inside
      that of <J, c2>, which cannot be completed with r - 1 more; so
      neither can <S, c2, y>, nor any state below <S, c2> that takes y
      (nor <S, y>, which lies in J).

    For N = 1 and t the least number of generators of H, the tuple found
    is increasing: were x_i > x_(i+1), swapping them would give an
    earlier tuple that generates H, since x_i lies outside
    <x_1, .., x_(i-1), x_(i+1)> (else t - 1 elements would generate H).
    So it is the lexicographically first generating t-subset of H.
    """
    coset_of, reps = cosets if cosets is not None else (None, None)
    dead: set[tuple[int, int]] = set()

    def search(mask, chosen, skip):
        elems = list(bits(mask))
        depth = len(chosen) + 1
        for c in bits(target & ~skip):
            if (skip >> c) & 1:         # in a sibling join that failed
                continue
            x = c if reps is None else reps[c]
            join = extend_closure(G, mask, elems, chosen, x)
            image = join if coset_of is None else subgroup_image_mask(coset_of, join)
            if image == target:
                return chosen + (x,)
            if depth < t and (image, depth) not in dead:
                found = search(join, chosen + (x,), skip | image)
                if found is not None:
                    return found
                dead.add((image, depth))
            skip |= image
        return None

    start = 1 << G.identity
    image = start if coset_of is None else subgroup_image_mask(coset_of, start)
    if image == target:
        return ()
    return search(start, (), image)


def _relative_exact(poset: ClassPoset, N: Subgroup, t: int) -> list[int]:
    """`relative_exact(N, t)` of the poset's lattice, once N is known to
    be normal (NotNormal), G/N to be generated by t elements
    (LiftNotGenerating) and N to be invariant under the acting group
    (NotInvariant), in that order.  The checks run once per (poset, N,
    t); a pair is kept only after all three pass."""
    key = (N.mask, t)
    if key not in poset.relative_checked:
        generating_lift(poset.lattice, N, t)
        if len(poset.orbit(poset.class_of_subgroup(N))) != 1:
            raise NotInvariant("N is not invariant under the acting subgroup")
        poset.relative_checked.add(key)
    return poset.lattice.relative_exact(N, t)


def omega_relative(poset: ClassPoset, c: int, N: Subgroup, t: int) -> int:
    """Number of t-tuples in g_1N x .. x g_tN, for any g with <g>N = G,
    whose closure lies inside some orbit member of class c.
    No engine caller: public API, the per-class relative `omega`."""
    return _downset_sum(poset, c, _relative_exact(poset, N, t))


def phi_relative_via_classes(poset: ClassPoset, N: Subgroup, t: int) -> int:
    """Relative count through the class-poset Moebius sum (the classes
    with HN != G add 0)."""
    return _class_sum(poset, _relative_exact(poset, N, t))


# -- subgroup-tuple counts ---------------------------------------------------

def sigma_tuples(poset: ClassPoset, c: int, t: int) -> int:
    """Number of subgroup t-tuples whose join lies in some orbit member.
    No engine caller: public API, `omega` for subgroup tuples."""
    _require_t(t)
    return _downset_sum(poset, c, poset.lattice.gamma_exact(t))


def gamma_tuples(poset: ClassPoset, c: int, t: int) -> int:
    """Number of subgroup t-tuples whose join is exactly some orbit member.
    No engine caller: public API, `psi` for subgroup tuples."""
    _require_t(t)
    gamma_exact = poset.lattice.gamma_exact(t)
    return sum(gamma_exact[k] for k in poset.orbit(c))


def phi_star(poset: ClassPoset, t: int) -> int:
    """Subgroup t-tuples generating G, via the class-poset Moebius sum."""
    _require_t(t)
    return _class_sum(poset, poset.lattice.gamma_exact(t))


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
    if tuples_exceed(nsub, t, budget):
        raise BudgetExceeded(f"{nsub}^{t}", budget, "subgroup tuple scan")
    order = lattice.group.order
    return _literal_scan(lattice.subgroups[lattice.trivial_id], lattice.subgroups,
                         lattice.join, t, lambda h: h.order == order)


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
