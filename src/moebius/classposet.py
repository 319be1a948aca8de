"""Posets of A-conjugacy classes of subgroups and their Moebius functions.

Classes are A-orbits of lattice subgroups, as `SubgroupLattice.orbits`
walks them over the generator maps of A; a poset under all of Inn(G)
reads the lattice's own conjugacy classes instead.  [H] <= [K] iff some
orbit member of [H] is contained in the representative of [K], that
is, iff the representative of [H] lies in some orbit member of [K].  So
the classes above [H] are read off the upeq row of its representative
(`SubgroupLattice.class_rows`).
The lattice itself is the special case of a trivial action.  The rows
are the only relation the engine reads, and every Moebius value is read
off one `mu_column` sweep over them: the column at the top class is
what the counting formulas consume, and the closure-theorem and
conjunctive checks read a sum of columns off one seeded sweep.
"""

from __future__ import annotations

from .automorphisms import Automorphism, AutomorphismGroup
from .errors import NotAClosureMap
from .groups import FiniteGroup, Subgroup, bits, product_covers, product_mask
from .lattice import SubgroupLattice, mu_column, transposed


class ClassPoset:
    """The poset of A-orbits of subgroups of one group."""

    def __init__(self, lattice: SubgroupLattice, aut: AutomorphismGroup,
                 classes: list[tuple[int, tuple[int, ...]]], class_of: list[int]):
        self.lattice = lattice
        self.aut = aut
        self.classes = classes          # (representative id, orbit ids) per class
        self.class_of = class_of        # subgroup id -> class id
        self.top = class_of[lattice.top_id]
        self.bottom = class_of[lattice.trivial_id]
        self._up = None
        self._rows = None
        self._downs = None
        self._mu_top = None
        # (N mask, t) whose relative counts passed counting's checks
        self.relative_checked: set[tuple[int, int]] = set()

    def __len__(self):
        return len(self.classes)

    def rep(self, c: int) -> Subgroup:
        return self.lattice.subgroups[self.classes[c][0]]

    def orbit(self, c: int) -> tuple[int, ...]:
        return self.classes[c][1]

    # -- order relation ----------------------------------------------------

    @property
    def singletons(self) -> bool:
        """Every orbit is a singleton: the poset is the lattice, and class
        ids are subgroup ids."""
        return len(self.classes) == len(self.lattice.subgroups)

    @property
    def up(self) -> list[list[int]]:
        """up[c] = class ids strictly above c, ascending: `rows` decoded.
        No engine path reads it; the tests and the perfbench spans do."""
        if self._up is None:
            self._up = [list(bits(row & ~(1 << c)))
                        for c, row in enumerate(self.rows())]
        return self._up

    def rows(self) -> list[int]:
        """The bitset over class ids of the classes at or above c, for each
        class c, read from the lattice inclusion bitsets.

        H^a <= K iff H <= K^(a^-1): the classes above [H] are the classes
        of the supergroups of its representative."""
        if self._rows is None:
            self._rows = self.lattice.class_rows(self.classes, self.class_of)
        return self._rows

    def downs(self) -> list[list[int]]:
        """downs[c] = the class ids at or below c, ascending: `rows`
        transposed, built once, or the lattice's `incidence` lists."""
        if self._downs is None:
            if self.aut.origin == "inner":
                self._downs = [below for below, _ in self.lattice.incidence]
            else:
                self._downs = transposed(self.rows())
        return self._downs

    def class_of_subgroup(self, sub: Subgroup) -> int:
        return self.class_of[self.lattice.index[sub.mask]]

    # -- Moebius -------------------------------------------------------------

    @property
    def mu_top(self) -> list[int]:
        """mu_A(H, G) for every class id, computed in one descending sweep;
        a poset of singleton classes reads the lattice column."""
        if self._mu_top is None:
            if self.singletons:
                self._mu_top = list(self.lattice.mu_top)
            else:
                self._mu_top = mu_column(self.rows(), [self.top])
        return self._mu_top


def build_class_poset(lattice: SubgroupLattice, aut: AutomorphismGroup) -> ClassPoset:
    """Partition the lattice into A-orbits and order the orbit classes.
    The orbits of all of Inn(G) (origin "inner") are the lattice's
    conjugacy classes, read as kept; any other action's are walked."""
    if aut.origin == "inner":
        return ClassPoset(lattice, aut, *lattice.conjugacy_classes)
    return ClassPoset(lattice, aut, *lattice.orbits([a.map for a in aut.gens]))


def conjugation_poset(lattice: SubgroupLattice) -> ClassPoset:
    """The class poset under conjugation: the lattice's conjugacy classes,
    acted on by Inn(G) held as G's kept conjugation maps."""
    G = lattice.group
    # the same Inn(G) as inner_automorphisms(G), built here because
    # perfbench's traced runs close every map list that function returns
    # (about 1.2 s on A:7)
    inner = AutomorphismGroup(G, [Automorphism(m) for _, m in G.conjugations], "inner")
    return ClassPoset(lattice, inner, *lattice.conjugacy_classes)


def lambda_poset(G: FiniteGroup, lattice: SubgroupLattice) -> ClassPoset:
    """The poset of ordinary conjugacy classes: mu of this poset is lambda."""
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
    sweep seeded with y's closure group; the right side is one sweep over
    the closed classes' rows alone, cut to the closed classes."""
    validate_closure_map(poset, cl)
    group: dict[int, list[int]] = {}
    for z, c in enumerate(cl):
        group.setdefault(c, []).append(z)
    closed = sorted(group)      # the closure values: the closed classes
    blocks = [1 << c for c in closed]
    keep = sum(blocks)
    rows = poset.rows()
    closed_rows = [rows[c] & keep for c in closed]
    bad = []
    for i, y in enumerate(closed):
        lhs = mu_column(rows, group[y])
        rhs = dict(zip(closed, mu_column(closed_rows, [i], blocks)))
        bad.extend((x, y) for x, left in enumerate(lhs) if left != rhs.get(x, 0))
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
    [H] <= [Y] < [G] and YN = G.  Returns offending class ids."""
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
    """Number of A-classes of complements of N in G containing H."""
    return len({poset.class_of_subgroup(k)
                for k in poset.lattice.complements(n_sub, h)})


def minimal_normal_subgroup_ids(lattice: SubgroupLattice) -> list[int]:
    """Ids of the minimal normal subgroups, ascending.  The nontrivial
    normal subgroups are the singleton conjugacy classes but 1, and one is
    minimal when the upeq row of no other one holds it."""
    normal = [r for r, orbit in lattice.conjugacy_classes[0]
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
