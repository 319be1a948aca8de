"""Full subgroup lattice enumeration and lattice-theoretic primitives.

Enumeration is Neubueser's cyclic extension over conjugacy classes.
Every subgroup is generated by zuppos, the cyclic subgroups of
prime-power order, so it is reached from 1 by joining one zuppo at a
time.  Only one representative H per class is extended: H is joined
with one zuppo from each N_G(H)-orbit of the zuppos outside H, and every
new subgroup enters with its whole conjugacy orbit, deduplicated by
bitset.  Five rules skip work whose answer is already decided, and none
changes the subgroups found (`enumerate_subgroups` gives the proofs):

- coset rule: <H, z*h> = <H, z> for h in H, so once H is joined with z,
  an N_G(H)-orbit holding a zuppo generated by an element of z*H is
  skipped; after a join by the first test below, of prime index, so is
  one holding a zuppo generated by any element of <H, z>;
- known supergroups: before H's first join, every zuppo of a normal
  subgroup K found before, with H < K of prime index, is known, as
  <H, z> = K for each z in K outside H; the normal subgroups found are
  indexed by order, with a bitset per zuppo of those holding it;
- Lagrange stop: [<H, z> : H] divides [G : H], so a join that has
  filled more cosets of H than the largest proper divisor of [G : H]
  is G; a join inside the perfect residue R is R once it has filled
  more than the largest divisor d of [R : H] with [R : H]/d >= 5;
- orbit-stabilizer stop: one walk, `groups.orbit_and_normalizer`, finds
  a new H's class and N_G(H) together and ends at |class| * |N| = |G|;
  the member with the smallest bitset is extended with its conjugated
  normalizer;
- only joins that can be new: H is joined with z only if z normalizes H
  and z^p lies in H, or if both lie in the solvable residue R, z is a
  pi'-zuppo and H is generated by its own pi'-zuppos, pi the two primes
  with the most zuppos in R; every non-perfect subgroup is such a
  prime-index extension, and every perfect one lies in R and, by
  Burnside's p^a q^b theorem, is generated by its pi'-zuppos.

Each join outside R is by an element z that normalizes H with z^p in
H, so `groups.fill_cosets` fills the p cosets z^i*H, with z's powers
read off the group's one power walk (`FiniteGroup.zuppos`) and no
closure search, and lists the elements;
a new subgroup's class walk starts from that list.  Any other join lies
inside R and goes through `extend_closure`, which stops at R.  The
enumerator carries each representative's element list from its orbit
walk to its joins.  Each zuppo is named by its least generator, and an
N_G(H)-orbit of zuppos is walked over those names, each step conjugating
one member by one generator of N_G(H), so only the orbit's members are
conjugated; the orbits depend on N_G(H) alone, so each is walked once
per normalizer and kept for every representative with that normalizer.
A representative's candidates, and the zuppos its joins have decided,
are int bitsets over the least generators, so an orbit, or every zuppo
a join has decided, is struck off in one AND-NOT.  The small-order test
oracle re-derives the same lattice independently.

Every orbit is walked by one routine, `perm.orbit`: the enumerator's
N_G(H)-orbits of zuppos, and, in `SubgroupLattice.orbits`, the orbits on
subgroup ids of generator maps for the class posets.  Every lattice,
fresh or cached, is built by `LatticeBuilder`, one `orbit_and_normalizer`
walk per conjugacy class, the one walk that also builds a stabilizer:
each member's witness and one normalizer per class, its representative's,
both keyed by bitset until the lattice maps them to ids through its one
`index`.

Inclusion is read off int bitsets over subgroup ids: K contains H iff K
holds every element of H's witness, so the subgroups above H, H's upeq
row, are the AND of the columns of its witness elements, a column being
the bitset of the subgroups holding one element.  The lattice keeps the
column of each element of a witness whose row was asked for, and no
row: a row is made from the columns when it is read (`UpRows`).  Every
relation over a partition of the subgroups into classes is one
`ClassPoset`, whose rows strike the classes met by a representative's
upeq row: the lattice's conjugacy classes make its `conjugation` poset,
built with the lattice and the only holder of that partition, and the
class poset of any other action is one more.  A poset of singleton
classes makes its rows, the upeq rows, when they are read; one with
larger classes keeps its class rows.  Only class representatives' rows
are read.

No down-set is listed.  Whatever is summed over down-sets comes from
one ascending sweep, `push_up`, that pushes each class's value into the
classes above it, read off the class's row.  Over the conjugation poset
a push from class d into class c counts m(c, d) times, the class form of
Burnside's table of marks (Theory of Groups of Finite Order, 1911; G.
Pfeiffer, Experiment. Math. 6, 1997): m(c, d) = the members of class d
inside rep_c = |d| * popcount(upeq(rep_d) & block_c) / |c| (count the
pairs D <= C, D in d, C in c, both ways), 1 when every class is a
singleton.  sigma(c) is the sum of m(c, d), the exact counts are
inverted in one such sweep each, and a class is maximal when its rep's
row is {rep, top}.

One Moebius routine, `mu_column`, serves the lattice and every class
poset.  It sweeps down bitset rows and keeps S_v, the ids already
valued v, so mu(x) = -sum over v of v * popcount(row_x & S_v); seeded
with a set Z instead of the top, one sweep gives the sum of mu(x, z)
over z in Z.  The
lattice column runs over classes, with the upeq rows of their
representatives and the conjugation poset's blocks, so no up-set is
decoded; a class poset runs over rows of class ids, or reads the
lattice column when every class is a singleton.
"""

from __future__ import annotations

from collections import Counter

from .errors import BudgetExceeded, ImageNotInLattice, NotNormal
from .groups import (FiniteGroup, Subgroup, _prime_of_power, bits, closure, conjugate_mask,
                     derived_series, extend_closure, fill_cosets, flags_to_mask,
                     is_normal_mask, orbit_and_normalizer, product_covers,
                     subgroup_image_mask)
from .perm import orbit

DEFAULT_SUBGROUP_BUDGET = 200000


class SubgroupLattice:
    """All subgroups of a group, each with its witness, ordered by (order,
    bitset), as `LatticeBuilder` builds them.

    Subgroup ids index the `subgroups` list, and `index` maps each bitset
    to its id.  `orbits` (lists of member bitsets) are the conjugacy
    classes, kept as the `conjugation` poset, and `normalizers` (bitset ->
    N_G bitset) hold N_G at each class representative.  The element
    columns behind inclusion, the Moebius column at the top and the
    counting data (one entry per subgroup or class) are computed lazily
    and kept, and no row of the relation is; no other normalizer is
    walked, and the lattice itself is immutable.
    """

    def __init__(self, group: FiniteGroup, subgroups: list[Subgroup], orbits, normalizers):
        self.group = group
        self.subgroups = subgroups
        self.index = index = {s.mask: i for i, s in enumerate(subgroups)}
        self.by_order: dict[int, list[int]] = {}
        for i, s in enumerate(subgroups):
            self.by_order.setdefault(s.order, []).append(i)
        self.trivial_id = index[1 << group.identity]
        self.top_id = index[group.full_mask()]
        # element -> bitset over subgroup ids of the subgroups holding it,
        # for the elements of the witnesses whose rows were asked for
        self._columns: dict[int, int] = {}
        self._up = None
        self._down = None
        self._maximals = None
        self._sigma = None
        self._mu_top = None
        self._normalizer = {index[m]: norm for m, norm in normalizers.items()}
        self._conj_orbit: dict[int, tuple[int, ...]] = {}
        # the exact counts, by what they count, and counting's phi(G/N, t)
        # by ("quotient", N, t)
        self._exact: dict[tuple, list[int] | int] = {}
        # the poset of conjugacy classes, the case A = Inn(G): its classes
        # are the partition, its rows the class relation
        self.conjugation = ClassPoset(self, *_partition(
            [tuple(sorted(index[m] for m in orbit)) for orbit in orbits], len(subgroups)))

    def __len__(self):
        return len(self.subgroups)

    # -- inclusion structure --------------------------------------------

    def upeq(self, ids) -> "UpRows":
        """The bitset over subgroup ids of the subgroups containing i, i
        included, for each i in ids, made when read: the AND, over the
        witness of i, of the columns of the witness elements.  The columns
        of the elements met for the first time are built here, in one pass
        over the lattice, and kept."""
        subs, cols = self.subgroups, self._columns
        missing = {x for i in ids for x in subs[i].gens} - cols.keys()
        if missing:
            used = sum(1 << x for x in missing)
            holding: dict[int, list[int]] = {x: [] for x in missing}
            for j, s in enumerate(subs):
                for x in bits(s.mask & used):
                    holding[x].append(j)
            while holding:
                # one column at a time: the subgroups holding x, as a bitset
                x, holders = holding.popitem()
                column = bytearray(len(subs))
                for j in holders:
                    column[j] = 1
                cols[x] = flags_to_mask(column)
        return UpRows(self, ids)

    @property
    def up(self) -> list[list[int]]:
        """up[i] = ids of proper supergroups of i, ascending.  No engine
        path reads it or `down`; the tests and the perfbench spans do."""
        if self._up is None:
            ids = list(range(len(self.subgroups)))   # one int object per id
            self._up = [[ids[j] for j in bits(u) if j != i]
                        for i, u in enumerate(self.upeq(ids))]
        return self._up

    @property
    def down(self) -> list[list[int]]:
        """down[i] = ids of proper subgroups of i, ascending: `up` transposed."""
        if self._down is None:
            self._down = [[] for _ in self.subgroups]
            for i, above in enumerate(self.up):
                for j in above:
                    self._down[j].append(i)
        return self._down

    @property
    def maximals(self) -> list[int]:
        """Ids of the maximal subgroups, ascending."""
        if self._maximals is None:
            classes = self.conjugation.classes
            top = self.top_id
            upeq = self.upeq([r for r, _ in classes])
            self._maximals = sorted(j for (r, orbit), u in zip(classes, upeq)
                                    if r != top and u == (1 << r) | (1 << top) for j in orbit)
        return self._maximals

    def _push_classes(self, own) -> list[int]:
        """`push_up` over the conjugation poset, a push from class d into
        a class c above it counted m(c, d) times, m(c, d) the members of d
        inside rep_c (for singleton classes, once)."""
        conj = self.conjugation
        if conj.blocks is None:
            return push_up(conj.rows(), own)
        size = [len(orbit) for _, orbit in conj.classes]
        upeq = self.upeq([r for r, _ in conj.classes])

        def marks(d):
            row = upeq[d]
            return lambda c: size[d] * (row & conj.blocks[c]).bit_count() // size[c]

        return push_up(conj.rows(), own, marks)

    # -- Moebius column ---------------------------------------------------

    @property
    def mu_top(self) -> list[int]:
        """mu(H, G) for every subgroup id H, on the full lattice.

        mu is constant on conjugacy classes, so the sweep runs over
        classes: the row of a class is the upeq bitset of its
        representative, and a valued class stands for its whole orbit."""
        if self._mu_top is None:
            conj = self.conjugation
            # G's class, a singleton, comes last
            mu = mu_column(self.upeq([r for r, _ in conj.classes]), [len(conj.classes) - 1],
                           conj.blocks)
            self._mu_top = [mu[c] for c in conj.class_of]
        return self._mu_top

    # -- orbits on subgroup ids -------------------------------------------

    def orbits(self, maps) -> tuple[list[tuple[int, tuple[int, ...]]], list[int]]:
        """(classes, class_of) for the orbits on subgroup ids of the group
        generated by `maps`, automorphisms as element image lists: class c
        is (its smallest id, its ids ascending), classes in that order.

        Each id not yet met starts an `orbit` walk, which steps from an id
        to the ids of its images.  An image outside the lattice raises
        ImageNotInLattice."""
        subs = self.subgroups
        index = self.index
        steps = [lambda j, m=m: index[subgroup_image_mask(m, subs[j].mask)] for m in maps]
        met = bytearray(len(subs))
        orbits = []
        try:
            for i in range(len(subs)):
                if not met[i]:
                    ids = orbit(i, steps)
                    for j in ids:
                        met[j] = 1
                    orbits.append(tuple(sorted(ids)))
        except KeyError as exc:
            raise ImageNotInLattice(
                "an automorphism image is missing from the lattice") from exc
        return _partition(orbits, len(subs))

    def class_representatives(self) -> list[int]:
        """One subgroup id per conjugacy class (the smallest in each orbit)."""
        return [r for r, _ in self.conjugation.classes]

    def conjugacy_orbit(self, i: int) -> tuple[int, ...]:
        """Ids of all conjugates of subgroup i, ascending."""
        orbit = self._conj_orbit.get(i)
        if orbit is None:
            conj = self.conjugation
            orbit = self._conj_orbit[i] = conj.orbit(conj.class_of[i])
        return orbit

    # -- classical primitives ---------------------------------------------

    def normalizer_mask(self, i: int) -> int:
        """N_G(H) for a class representative i, as its class walk kept it;
        no other normalizer is walked."""
        return self._normalizer[i]

    def sigma(self, i: int) -> int:
        """Number of subgroups of subgroup i (including 1 and itself): one
        push of 1 from every class, kept per class."""
        if self._sigma is None:
            self._sigma = [below + 1 for below in self._push_classes(lambda c, below: 1)]
        return self._sigma[self.conjugation.class_of[i]]

    def closure_in_maximals(self, h: Subgroup) -> Subgroup:
        """Intersection of the maximal subgroups containing h (G if none)."""
        row = self.upeq([self.index[h.mask]])[0]
        mask = self.group.full_mask()
        for m in self.maximals:
            if row >> m & 1:
                mask &= self.subgroups[m].mask
        return self.subgroups[self.index[mask]]

    def frattini(self) -> Subgroup:
        return self.closure_in_maximals(self.subgroups[self.trivial_id])

    def complements(self, n_sub: Subgroup, h: Subgroup | None = None) -> list[Subgroup]:
        """All K with KN = G, K meet N = 1, and (optionally) H <= K,
        ascending: the K in H's upeq row (1's when no H is given) whose
        `relative_size(N)` is 1.  Raises NotNormal for a non-normal N."""
        if not is_normal_mask(self.group, n_sub.mask):
            raise NotNormal("complements need a normal subgroup")
        size = self.relative_size(n_sub)
        row = self.upeq([self.trivial_id if h is None else self.index[h.mask]])[0]
        return [self.subgroups[k] for k in bits(row) if size(k) == 1]

    # -- exact generation counts (shared by the counting module) ----------

    def phi_exact(self, t: int) -> list[int]:
        """phi_exact[K] = number of t-tuples of elements generating exactly K."""
        return self._exact_counts(("phi", t), t, lambda i: self.subgroups[i].order)

    def gamma_exact(self, t: int) -> list[int]:
        """gamma_exact[K] = number of t-tuples of subgroups joining exactly to K."""
        return self._exact_counts(("gamma", t), t, self.sigma)

    def relative_exact(self, N: Subgroup, t: int) -> list[int]:
        """relative_exact[K] = number of t-tuples in g_1N x .. x g_tN
        generating exactly K, for a normal N and any g with <g>N = G.
        Such tuples lie in K in number |K meet N|^t when KN = G and 0
        otherwise (if each g_iN meets K, then KN >= <g>N = G), whatever g
        is; conjugation fixes N, so that size is constant on classes.
        Raises NotNormal for a non-normal N, before any count; only a
        normal N gets a memo."""
        key = ("relative", N.mask, t)
        if key not in self._exact and not is_normal_mask(self.group, N.mask):
            raise NotNormal("relative count needs a normal subgroup")
        return self._exact_counts(key, t, self.relative_size(N))

    def relative_size(self, N: Subgroup):
        """The size, by subgroup id, of the relative counts over N: |K meet
        N| when KN = G, else 0, constant on classes for a normal N."""
        G, n_mask, subs = self.group, N.mask, self.subgroups

        def size(i):
            mask = subs[i].mask
            return (mask & n_mask).bit_count() if product_covers(G, mask, n_mask) else 0

        return size

    def _exact_counts(self, key: tuple, t: int, size) -> list[int]:
        """Moebius inversion of size(K)^t up the conjugacy classes, kept
        under key: vals[c] = size(rep_c)^t - the sum of m(c, d) * vals[d]
        over the d < c, which one `_push_classes` sweep has pushed into c
        by the time it reaches c."""
        out = self._exact.get(key)
        if out is None:
            conj = self.conjugation
            tops = [size(r) ** t for r, _ in conj.classes]
            below = self._push_classes(lambda c, below: tops[c] - below)
            out = self._exact[key] = [tops[c] - below[c] for c in conj.class_of]
        return out


def _partition(orbits, count: int) -> tuple[list[tuple[int, tuple[int, ...]]], list[int]]:
    """(classes, class_of) for orbits, ascending id tuples that partition
    range(count): class c is (its smallest id, its ids), classes in that
    order."""
    orbits = sorted(orbits)
    class_of = [0] * count
    for c, orbit in enumerate(orbits):
        for j in orbit:
            class_of[j] = c
    return [(orbit[0], orbit) for orbit in orbits], class_of


def push_up(rows, own, marks=None) -> list[int]:
    """below[c] for every item c of a finite poset given by bitset rows
    (rows[c] holds the items at or above c): the sum, over the items d
    below c, of own(d, below[d]), counted marks(d)(c) times (once when
    marks is None).  Items must extend the order, so one ascending sweep
    has pushed every such d into c when it reaches c; there own(c,
    below[c]) is pushed into every item above c, and a zero is not, nor
    is its row read.  The items above c are read off one binary string of
    the row, with no big-int operation per item."""
    below = [0] * len(rows)
    for c in range(len(rows)):
        v = own(c, below[c])
        if v:
            m = marks(c) if marks else None
            # the digit at i stands for the item top - i
            digits = bin(rows[c] >> (c + 1))
            top = len(digits) + c
            i = digits.find("1", 2)
            while i >= 0:
                below[top - i] += v if m is None else v * m(top - i)
                i = digits.find("1", i + 1)
    return below


class UpRows:
    """The upeq rows of a list of subgroup ids, each made from the
    lattice's element columns when it is read and held only by its
    reader."""

    def __init__(self, lattice: SubgroupLattice, ids: list[int]):
        self.ids = ids
        self.subgroups = lattice.subgroups
        self.columns = lattice._columns
        self.full = (1 << len(lattice.subgroups)) - 1

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, k: int) -> int:
        row = self.full
        for x in self.subgroups[self.ids[k]].gens:
            row &= self.columns[x]
        return row

    def __iter__(self):
        return map(self.__getitem__, range(len(self.ids)))


def mu_column(rows: list[int] | UpRows, seeds, blocks: list[int] | None = None) -> list[int]:
    """The sum of mu(x, z) over the items z in `seeds`, for every item x of
    a finite poset, from bitset rows; seeds [top] give the column mu(x, top).

    Each item owns a set of ids: blocks[x], a bitset (a whole conjugacy
    class of subgroup ids, say), or x alone when blocks is None.  rows[x]
    holds the ids owned by the items at or above x.  With Z the seeds,
    f(x) = sum of mu(x, z) over z in Z satisfies f(x) = [x in Z] - sum of
    f(y) over the items y above x, counting y once for each of its ids in
    rows[x] (sum the defining equation mu(x, z) = [x = z] - sum of
    mu(y, z) over x < y <= z over Z).  Items must extend the order (x
    below y implies x < y), so one descending sweep values every item
    above x before x; with S_v the ids of the items already valued v,
    f(x) is [x in Z] - sum over v of v * popcount(rows[x] & S_v).  Only
    items below a seed can be nonzero: no item x > max(Z) is, so the sweep
    starts there (no seeds give all zeros), and an x whose row holds no id
    of a seed is skipped (a top column skips nothing)."""
    seeds = set(seeds)
    reach = 0   # the ids the seeds own
    for z in seeds:
        reach |= 1 << z if blocks is None else blocks[z]
    mu = [0] * len(rows)
    valued: dict[int, int] = {}   # v -> S_v, v != 0
    for x in range(max(seeds, default=-1), -1, -1):
        row = rows[x]
        if not row & reach:
            continue
        v = (x in seeds) - sum([v * (row & ids).bit_count() for v, ids in valued.items()])
        if v:
            mu[x] = v
            valued[v] = valued.get(v, 0) | (1 << x if blocks is None else blocks[x])
    return mu


class ClassPoset:
    """The poset of the classes of a partition of a lattice's subgroups
    into orbits of a group acting on it: (classes, class_of) as
    `SubgroupLattice.orbits` gives them."""

    def __init__(self, lattice: SubgroupLattice,
                 classes: list[tuple[int, tuple[int, ...]]], class_of: list[int]):
        self.lattice = lattice
        self.classes = classes          # (representative id, orbit ids) per class
        self.class_of = class_of        # subgroup id -> class id
        # the bitset over subgroup ids of each class, or None when every
        # class is a singleton and class ids are subgroup ids
        self.blocks = (None if len(classes) == len(lattice.subgroups)
                       else [sum(1 << j for j in orbit) for _, orbit in classes])
        self.top = class_of[lattice.top_id]
        self.bottom = class_of[lattice.trivial_id]
        self._up = None
        self._rows = None
        self._mu_top = None
        # counting's down-set sums, one entry per class, by what they sum;
        # relative ones are kept only once counting's checks pass
        self.downset_sums: dict[tuple, list[int]] = {}

    def __len__(self):
        return len(self.classes)

    def rep(self, c: int) -> Subgroup:
        return self.lattice.subgroups[self.classes[c][0]]

    def orbit(self, c: int) -> tuple[int, ...]:
        return self.classes[c][1]

    def class_of_subgroup(self, sub: Subgroup) -> int:
        return self.class_of[self.lattice.index[sub.mask]]

    # -- order relation ----------------------------------------------------

    @property
    def up(self) -> list[list[int]]:
        """up[c] = class ids strictly above c, ascending: `rows` decoded.
        No engine path reads it; the tests and the perfbench spans do."""
        if self._up is None:
            self._up = [list(bits(row & ~(1 << c)))
                        for c, row in enumerate(self.rows())]
        return self._up

    def rows(self) -> list[int] | UpRows:
        """The bitset over class ids of the classes at or above c, for each
        class c: the classes meeting its representative's upeq row, since
        H^a <= K iff H <= K^(a^-1).  Each step takes the class of the lowest
        id left and strikes all its ids off; these rows are kept.  Singleton
        classes' rows are upeq rows, made when read (`UpRows`), so a reader
        that walks them more than once lists them once per call."""
        if self._rows is None:
            rows = self.lattice.upeq([r for r, _ in self.classes])
            if self.blocks is None:
                return rows
            self._rows = rows = list(rows)
            for k, u in enumerate(rows):
                rows[k] = 0
                while u:
                    c = self.class_of[(u & -u).bit_length() - 1]
                    rows[k] |= 1 << c
                    u &= ~self.blocks[c]
        return self._rows

    # -- Moebius -------------------------------------------------------------

    @property
    def mu_top(self) -> list[int]:
        """mu_A(H, G) for every class id, computed in one descending sweep;
        a poset of singleton classes reads the lattice column."""
        if self._mu_top is None:
            if self.blocks is None:
                self._mu_top = list(self.lattice.mu_top)
            else:
                self._mu_top = mu_column(self.rows(), [self.top])
        return self._mu_top


class LatticeBuilder:
    """A lattice built one conjugacy class at a time, the one way both
    `enumerate_subgroups` and `cache.load_lattice` build one: `add` walks
    a class with `orbit_and_normalizer` and keeps each member's witness
    (`witnesses`), the class and N_G at its least member; `lattice` sorts
    the members by (order, bitset) and hands it the classes and
    normalizers, keyed by bitset.  A class met before raises ValueError,
    and passing `budget` subgroups raises BudgetExceeded; every build,
    fresh or from a cache file, has a budget."""

    def __init__(self, G: FiniteGroup, budget: int):
        self.group = G
        self.budget = budget
        self.witnesses: dict[int, tuple[int, ...]] = {}
        self.orbits: list[list[int]] = []
        self.normalizers: dict[int, int] = {}   # least member's bitset -> N_G

    def add(self, mask: int, witness: tuple[int, ...], elems=None):
        """Keep the class of H = <witness>, given its elements when known;
        return its least member H^a, its elements, N_G(H^a) = N_G(H)^a and
        the conjugated generators."""
        G, seen = self.group, self.witnesses
        members, norm, norm_gens = orbit_and_normalizer(G, mask, witness, elems)
        count = len(seen)
        seen.update((c, w) for c, _, w, _ in members)
        if len(seen) < count + len(members):
            raise ValueError("duplicate subgroups")
        if len(seen) > self.budget:
            # the count at the first subgroup past the budget
            raise BudgetExceeded(self.budget + 1, self.budget, "subgroup enumeration")
        self.orbits.append([c for c, _, _, _ in members])
        least, least_elems, _, carrier = min(members)
        if carrier != G.identity:
            norm = conjugate_mask(G, norm, carrier)
            norm_gens = tuple(G.conjugates(norm_gens, carrier))
        self.normalizers[least] = norm
        return least, least_elems, norm, norm_gens

    def lattice(self) -> SubgroupLattice:
        subs = [Subgroup(m, w) for m, w in self.witnesses.items()]
        subs.sort(key=lambda s: (s.order, s.mask))
        return SubgroupLattice(self.group, subs, self.orbits, self.normalizers)


def _dropped_primes(primes) -> set[int]:
    """pi, the two primes that occur most often in `primes`, the prime of
    each zuppo of R (ties go to the smaller prime); second-test joins
    never take a zuppo of a prime in pi."""
    counts = Counter(primes)
    return set(sorted(counts, key=lambda p: (-counts[p], p))[:2])


def enumerate_subgroups(G: FiniteGroup,
                        budget: int = DEFAULT_SUBGROUP_BUDGET) -> SubgroupLattice:
    """Enumerate every subgroup of G by cyclic extension over classes.

    Every subgroup is a chain of joins with zuppos starting from 1, and
    a join of a conjugate H^g is the conjugate of a join of H, so it is
    enough to join class representatives with zuppos and to insert the
    whole conjugacy orbit of each new subgroup.  For n in N_G(H),
    <H, z^n> = <H, z>^n, so one zuppo per N_G(H)-orbit suffices.  Five
    rules cut the work; none changes the subgroups found.

    Coset rule: y in z*H gives <H, y> = <H, z>, since y and z differ by
    an element of H.  So after H is joined with z, every zuppo generated
    by an element of z*H (`G.coset` of z at H's elements) is
    known.  A join T = <H, z> by the first test below has prime index p
    over H, as z normalizes H and z^p lies in H, and more is known: for y
    in T outside H, H < <H, y> <= T and [<H, y> : H] divides p, so
    <H, y> = T, and every zuppo generated by an element of T is known
    (those inside H are never candidates).  A join by the second test
    marks z*H only, whatever its index; marking all of T at a prime
    index saved no join on any of nine non-solvable groups up to A_8,
    and a solvable group makes no second-test join.  An
    N_G(H)-orbit that meets a known zuppo joins to conjugates of a
    subgroup whose orbit is already inserted; its walk is finished, so
    none of its members is joined, and no closure is made.

    Known-supergroup rule: let K be a normal subgroup already found with
    H < K and [K : H] = p prime.  For z in K outside H, H < <H, z> <= K,
    and [<H, z> : H] divides p, so <H, z> = K.  So before H's first join
    every zuppo generated by an element of K is known, and, K being
    normal, the N_G(H)-orbit of such a zuppo lies in K: it is struck
    from the candidates with no join, no coset fill and no orbit walk.
    A skipped join would have found K, already inserted, so the joins
    that find a subgroup, their order and the witnesses do not change.
    The normal subgroups found (those whose normalizer is G, a class of
    one) are indexed by order, each order with a bitset over their
    positions per zuppo least generator, of those holding that zuppo; K
    holds H when it holds each of H's witness generators, so the K above
    H of order p*|H| are one AND over H's witness, for each prime p
    dividing |G|, asked only when H has candidates.  Only normal
    subgroups are indexed: a class of one is its own least member, so
    one entry covers it, while an index of every member of every class
    costs a bit per member and zuppo it holds.  Such an index skips
    more joins (24 853 instead of 36 811 over the 590 solvable groups of
    order at most 100), but it raised the peak RSS of enumerating A_8
    from 164 to 184 MB and of S_8 from 799 to 884 MB, which have few
    normal subgroups, and S_8's time from 11 to 24 s.

    Lagrange stop (in `extend_closure` and `fill_cosets`): [<H, z> : H]
    divides [G : H], so a join that has filled more cosets of H than the
    largest proper divisor of [G : H] is G; a first-test join of index p
    = [G : H] is G before any coset is filled.  A second-test join lies
    in R, and R is perfect (R' = R), so it is given R as the top, where
    the least index of a proper subgroup is 5, not 2: if K < R has index
    n, R acts on the n cosets of K, transitively, so through a
    nontrivial quotient of R inside S_n; a quotient of a perfect group
    is perfect, and S_2, S_3 and S_4 are solvable, so n >= 5.  Hence
    [R : <H, z>] >= 5 unless <H, z> = R, and a join that has filled more
    cosets of H than the largest divisor d of [R : H] with [R : H]/d >= 5
    is R.

    Orbit-stabilizer stop (in `orbit_and_normalizer`): the class of a
    new H and N_G(H) are grown in one walk, and |class| * |N_G(H)| =
    |G|, so the walk ends when |members| * |N| = |G|.  The member with
    the smallest bitset, the one `class_representatives` reports, is
    extended, with N_G(H) and its generators conjugated along the walk;
    those normalizers are handed to the lattice.

    Only joins that can be new: H is joined with a zuppo generator z of
    p-power order only if z normalizes H and z^p lies in H (the first
    test), or if H and z both lie in R, the last term of the derived
    series, p is not in pi and H is generated by its own pi'-zuppos (the
    second test).  Here pi is the set of the two primes with the most
    zuppos in R (`_dropped_primes`), and a pi'-zuppo is a zuppo of R of
    any other prime; a nontrivial perfect R has at least three prime
    divisors, by Burnside's p^a q^b theorem, so some are left.  This
    still reaches every subgroup K, by induction on |K|.  If K is not
    perfect it has a normal subgroup M of prime index p; for k in K
    outside M of order p^a*m with m prime to p, z = k^m is a p-element
    outside M with z^p in M, so K = <M, z> and z passes the first test.
    If K is perfect it lies in R and is generated by its pi'-zuppos:
    with O^pi(K) the subgroup its pi'-elements generate, K/O^pi(K) is a
    pi-group, so solvable by Burnside's theorem, and perfect as a
    quotient of K, so trivial; and a pi'-element is the product of
    powers of itself of prime-power order outside pi.  Join those zuppos
    one at a time: the last join that grows the subgroup is K = <H, z>,
    with H < K generated by pi'-zuppos and z a pi'-zuppo outside H, and
    z passes the second test.  Both tests are invariant under
    conjugation of H and z together, so they hold at the class
    representative, on whole N_G(H)-orbits, and agree with the orbit
    walk and the coset rule.  Whether H is generated by its pi'-zuppos is
    one `closure` of those it holds, made only when a pi'-zuppo outside
    H is left; H = 1 is.

    Work per join: a first-test join is known to have index p, so
    `fill_cosets` fills the cosets z^i*H, without
    testing again that z normalizes H or that the index is prime, and
    lists the elements of <H, z> coset by coset; a new <H, z> hands that
    list to its orbit walk instead of decoding its bitset.  Joins by the
    second test go through `extend_closure`, with R as the top.  The
    extended member's element list comes from its orbit walk and serves
    its joins and the coset rule.

    Orbits: each zuppo is named by its least generator (`G.zuppos`), and
    the N_G(H)-orbit of a zuppo is one `perm.orbit` walk over those names,
    a step taking x to the least generator of <g^-1 x g> for each
    non-central generator g of N_G(H), conjugated by `G.conjugates` as the
    walk meets x.  The orbit depends on the group N_G(H) alone, not on H
    or on the generators its class walk found, so it is kept under each of
    its members in a memo per normalizer bitset and walked once per
    normalizer: the G-classes once for every normal H, and any other
    N_G(H)-orbit once for every representative with that normalizer.

    Bitsets: an int bitset over elements whose bits are least generators
    lists zuppos by their names, lowest first.  H's candidates are one:
    the zuppos Z with Z^p in H (an OR over the elements of H), ANDed with
    N_G(H), ORed with the pi'-zuppos when the second test holds, with H's
    own cleared.  The lowest candidate is joined, its orbit is cleared
    with one AND-NOT, and the known zuppos are a bitset too, so an orbit
    meets them in one AND.  After each join the known
    zuppos are struck from the candidates in bulk: a known candidate
    would only be walked to an orbit that meets them and skipped, so the
    joins, their order and the witnesses do not change, and the loop
    runs about once per join instead of once per candidate.

    Witnesses depend on which members are extended, but the subgroups,
    their order and the conjugacy orbits do not."""
    center = G.center_mask
    full = G.full_mask()
    triv = 1 << G.identity
    residue = derived_series(G)[-1]
    build = LatticeBuilder(G, budget)
    seen = build.witnesses

    zuppo_of, zpowers, power_cands = G.zuppos
    # the elements keying power_cands, as one bitset
    powers = sum(1 << y for y in power_cands)
    # least generators of the pi'-zuppos: those in R whose prime is not
    # one of the two, pi, with the most zuppos in R
    pi_zuppos = 0
    if residue != triv:
        prime = {zx: _prime_of_power(len(zx_powers) + 1)
                 for zx, zx_powers in zpowers.items() if (residue >> zx) & 1}
        pi = _dropped_primes(prime.values())
        pi_zuppos = sum(1 << zx for zx, p in prime.items() if p not in pi)
    # N_G(H) bitset -> (least generator -> its zuppo's N_G(H)-orbit), kept
    # once walked, for every H with that normalizer
    n_orbits: dict[int, dict[int, int]] = {}
    # the primes dividing |G|, each the prime of some zuppo (Cauchy)
    primes = sorted({_prime_of_power(len(zx_powers) + 1) for zx_powers in zpowers.values()})
    # order -> (the normal subgroups found of that order, least generator
    # -> bitset over their positions of those holding its zuppo)
    normals: dict[int, tuple[list[int], dict[int, int]]] = {}

    def add(mask, witness, elems=None):
        found = build.add(mask, witness, elems)
        least, least_elems, norm, _ = found
        if norm == full:
            # a normal class is [H], its least member H itself
            masks, holding = normals.setdefault(len(least_elems), ([], {}))
            bit = 1 << len(masks)
            masks.append(least)
            for y in least_elems:
                if zuppo_of[y] == y:
                    holding[y] = holding.get(y, 0) | bit
        return found

    worklist = [add(triv, ())]
    while worklist:
        h, h_elems, norm, norm_gens = worklist.pop()
        h_gens = seen[h]
        # least generators of the zuppos Z with Z^p in H, then of those
        # normalizing H (the first test)
        first = 0
        for y in bits(h & powers):
            first |= power_cands[y]
        first &= norm & ~h
        cands = first
        if h & ~residue == 0:
            # the second test: pi'-zuppos, when H lies in R and is
            # generated by its own pi'-zuppos
            second = pi_zuppos & ~h
            if second and closure(G, bits(h & pi_zuppos))[0] == h:
                cands |= second
        known = 0   # least generators of zuppos whose join with H is found
        if cands:
            # a normal K found before, holding H with [K : H] = p prime:
            # <H, z> = K for every z in K outside H
            for p in primes:
                if (entry := normals.get(p * len(h_elems))) is None:
                    continue
                masks, holding = entry
                above = (1 << len(masks)) - 1
                for x in h_gens:
                    above &= holding.get(zuppo_of[x], 0)
                for i in bits(above):
                    known |= masks[i]
            cands &= ~known
        orbits = n_orbits.setdefault(norm, {})
        while cands:
            # the N_G(H)-orbit of the lowest candidate; only that zuppo is
            # joined, and none is when the orbit meets a known zuppo
            zx = (cands & -cands).bit_length() - 1
            if (z_orbit := orbits.get(zx)) is None:
                # conjugation by each non-central generator of N_G(H),
                # applied only to the zuppos the walk meets
                steps = [lambda x, g=g: zuppo_of[G.conjugates((x,), g)[0]]
                         for g in norm_gens if not (center >> g) & 1]
                z_orbit = sum(1 << y for y in orbit(zx, steps))
                for y in bits(z_orbit):
                    orbits[y] = z_orbit
            cands &= ~z_orbit
            if z_orbit & known:
                continue
            if (first >> zx) & 1:
                # z normalizes H and z^p lies in H: [<H, z> : H] = p, and
                # <H, y> = <H, z> for every y in <H, z> outside H
                t, t_elems = fill_cosets(G, h, h_elems, zpowers[zx])
                known |= t
            else:
                t = extend_closure(G, h, h_elems, h_gens, zx, residue)
                t_elems = None
                # a second-test join: the zuppos of z*H
                for y in G.coset(zx, h_elems):
                    if (z := zuppo_of[y]) >= 0:
                        known |= 1 << z
            # an orbit that meets a known zuppo is skipped, so the known
            # candidates need no walk
            cands &= ~known
            if t not in seen:
                worklist.append(add(t, h_gens + (zx,), t_elems))
    return build.lattice()
