"""Posets of A-conjugacy classes of subgroups and their Moebius functions.

Classes are A-orbits of lattice subgroups, as `SubgroupLattice.orbits`
walks them over the generator maps of A, and a `lattice.ClassPoset`
orders them; under all of Inn(G) the poset is the lattice's own
conjugation poset (`SubgroupLattice.conjugation`), built with the
lattice and the only holder of its conjugacy classes.  A class poset
holds no action, only its partition.  [H] <= [K] iff some orbit member of [H] is
contained in the representative of [K], that is, iff the representative
of [H] lies in some orbit member of [K].  So the classes above [H] are
read off the upeq row of its representative (`ClassPoset.rows`).
The lattice itself is the special case of a trivial action.  The rows
are the only relation the engine reads, and every Moebius value is read
off one `mu_column` sweep over them: the column at the top class is
what the counting formulas consume, and the closure-theorem and
conjunctive checks read a sum of columns off one seeded sweep.
"""

from __future__ import annotations

from .automorphisms import AutomorphismGroup
from .errors import NotAClosureMap
from .groups import FiniteGroup, Subgroup, bits, product_covers, product_mask
from .lattice import ClassPoset, SubgroupLattice, mu_column


def build_class_poset(lattice: SubgroupLattice, aut: AutomorphismGroup) -> ClassPoset:
    """Partition the lattice into A-orbits and order the orbit classes.
    The orbits of all of Inn(G) (origin "inner") are the lattice's
    conjugacy classes, whose poset the lattice keeps; any other action's
    are walked."""
    if aut.origin == "inner":
        return lattice.conjugation
    return ClassPoset(lattice, *lattice.orbits([a.map for a in aut.gens]))


def conjugation_poset(lattice: SubgroupLattice) -> ClassPoset:
    """The class poset under conjugation: the lattice's own."""
    return lattice.conjugation


def lambda_poset(G: FiniteGroup, lattice: SubgroupLattice) -> ClassPoset:
    """The poset of ordinary conjugacy classes: mu of this poset is lambda.
    No engine caller: the tests and perfbench's spans name it."""
    return conjugation_poset(lattice)


def kappa(lattice: SubgroupLattice, sub: Subgroup) -> int:
    """|G : N_G(H)|, the size of H's conjugacy class by orbit-stabilizer."""
    return len(lattice.conjugacy_orbit(lattice.index[sub.mask]))


# -- closure maps and the closure-theorem checker ---------------------------

def maximal_closure_map(poset: ClassPoset) -> list[int]:
    """Class-level map [H] -> [intersection of maximals over H]."""
    lat = poset.lattice
    lat.upeq([r for r, _ in poset.classes])     # every row in one pass
    out = []
    for c in range(len(poset.classes)):
        closed = lat.closure_in_maximals(poset.rep(c))
        out.append(poset.class_of[lat.index[closed.mask]])
    return out


def validate_closure_map(poset: ClassPoset, cl: list[int]) -> None:
    """Raise NotAClosureMap unless cl is extensive, monotone and
    idempotent, reading the order as bits of the class rows."""
    rows = poset.rows()
    for x, row in enumerate(rows):
        if not (row >> cl[x]) & 1:
            raise NotAClosureMap("a", f"class {x} not below its closure")
    for x, row in enumerate(rows):
        for y in bits(row & ~(1 << x)):
            if not (rows[cl[x]] >> cl[y]) & 1:
                raise NotAClosureMap("b", f"not monotone at {x} <= {y}")
    for x in range(len(rows)):
        if cl[cl[x]] != cl[x]:
            raise NotAClosureMap("c", f"not idempotent at {x}")


def crapo_check_all(poset: ClassPoset, cl: list[int]) -> list[tuple[int, int]]:
    """All pairs (x, y) violating the closure-theorem identity (none
    expected), once cl is checked to be a closure map: y closed and x any
    class, where the sum of mu(x, z) over the classes z with closure y
    differs from mu(x, y) in the subposet of closed classes when x is
    closed, and from 0 otherwise.  The left side at y is one `mu_column`
    sweep seeded with y's closure group; the right side is one sweep seeded
    with y over the rows emptied at the classes that are not closed: it
    values none of them, so it is the closed subposet's column, 0 off it."""
    validate_closure_map(poset, cl)
    group: dict[int, list[int]] = {}
    for z, c in enumerate(cl):
        group.setdefault(c, []).append(z)
    rows = poset.rows()
    closed_rows = [row if cl[x] == x else 0 for x, row in enumerate(rows)]
    bad = []
    for y in sorted(group):     # the closure values: the closed classes
        lhs = mu_column(rows, group[y])
        rhs = mu_column(closed_rows, [y])
        if lhs != rhs:
            bad.extend((x, y) for x in range(len(lhs)) if lhs[x] != rhs[x])
    return bad


def nonzero_implies_closed(poset: ClassPoset, cl: list[int]) -> list[int]:
    """Classes below the top with nonzero Moebius value that the closure
    map cl (`maximal_closure_map`) moves: classes that are not
    intersections of maximal subgroups (the returned list should be
    empty)."""
    mu = poset.mu_top
    return [c for c in range(len(poset.classes))
            if c != poset.top and mu[c] != 0 and cl[c] != c]


# -- instance checkers for the structural lemmas ----------------------------

def conjunctive_identity_violations(poset: ClassPoset, n_sub: Subgroup) -> list[int]:
    """For an A-invariant normal N, check on every class [H] with
    H < HN < G that mu_A(H,G) = -sum of mu_A(H,Y) over classes [Y] with
    [H] <= [Y] < [G] and YN = G.  Returns offending class ids.
    No engine caller: public API for this identity, which `verify` lacks."""
    lat = poset.lattice
    G = lat.group
    full = G.full_mask()
    n = len(poset.classes)
    over = [d for d in range(n)
            if d != poset.top and product_covers(G, poset.rep(d).mask, n_sub.mask)]
    # sum of mu_A(x, d) over d in over, for every x, in one seeded sweep
    summed = mu_column(poset.rows(), over)
    bad = []
    for c in range(n):
        h = poset.rep(c)
        hn = product_mask(G, h.mask, n_sub.mask)
        if hn == h.mask or hn == full:
            continue
        if poset.mu_top[c] != -summed[c]:
            bad.append(c)
    return bad


def complement_class_count(poset: ClassPoset, n_sub: Subgroup,
                           h: Subgroup) -> int:
    """Number of A-classes of complements of N in G containing H.
    No engine caller: public API for the complement identity."""
    return len({poset.class_of_subgroup(k)
                for k in poset.lattice.complements(n_sub, h)})


def minimal_normal_subgroup_ids(lattice: SubgroupLattice) -> list[int]:
    """Ids of the minimal normal subgroups, ascending.  The nontrivial
    normal subgroups are the singleton conjugacy classes but 1, and one is
    minimal when the upeq row of no other one holds it."""
    normal = [r for r, orbit in lattice.conjugation.classes
              if len(orbit) == 1 and r != lattice.trivial_id]
    above = 0
    for i, row in zip(normal, lattice.upeq(normal)):
        above |= row & ~(1 << i)
    return [i for i in normal if not above >> i & 1]


def divisibility_scan(poset: ClassPoset, n_sub: Subgroup) -> list[int]:
    """Experimental: classes [H] where mu_A(HN,G) does not divide mu_A(H,G).

    Pure reporting; the engine takes no stance on whether failures can
    occur (0 is taken to divide only 0)."""
    lat = poset.lattice
    G = lat.group
    failures = []
    for c in range(len(poset.classes)):
        h = poset.rep(c)
        hn = product_mask(G, h.mask, n_sub.mask)
        d = poset.class_of[lat.index[hn]]
        mu_hn = poset.mu_top[d]
        mu_h = poset.mu_top[c]
        if (mu_hn == 0 and mu_h != 0) or (mu_hn != 0 and mu_h % mu_hn != 0):
            failures.append(c)
    return failures
