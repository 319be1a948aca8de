"""Fully enumerated finite permutation groups and element-index arithmetic.

Every group is materialized as an ordered element list (BFS from the
identity, generators in the given order) so that indices are reproducible
across runs.  All heavy machinery downstream works on element indices and
on subgroup bitsets (Python ints, bit i = element i).
"""

from __future__ import annotations

import re
from array import array

from .errors import ClosureExceedsCap, NotNormal, ParseError
from .perm import Permutation, parse_cycles

_CYCLE_POINTS = re.compile(r"\d+")

DEFAULT_ORDER_CAP = 10000


def bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteGroup:
    """An enumerated permutation group.

    Elements are image tuples; `index` inverts the element list.  The
    multiplication table, inverse table and element orders are built
    lazily and cached.  Instances are immutable after construction.
    """

    __slots__ = ("degree", "elements", "index", "order", "identity", "gens",
                 "spec", "_table", "_inv", "_elt_orders", "_abelian", "_center")

    def __init__(self, elements, gens, spec=None):
        self.elements = list(elements)
        self.order = len(self.elements)
        self.degree = len(self.elements[0])
        self.index = {p: i for i, p in enumerate(self.elements)}
        if len(self.index) != self.order:
            raise ValueError("duplicate elements")
        self.identity = self.index[tuple(range(self.degree))]
        self.gens = tuple(gens)
        self.spec = spec
        self._table = None
        self._inv = None
        self._elt_orders = None
        self._abelian = None
        self._center = None

    # -- lazy tables ---------------------------------------------------

    @property
    def table(self) -> array:
        """Flat multiplication table: index of x*y at [x*order + y]."""
        if self._table is None:
            n = self.order
            els = self.elements
            mt = array("i", bytes(4 * n * n))
            if self.degree <= 255:
                # compose via bytes.translate: (x*y)[i] = y[x[i]]
                els_b = [bytes(p) for p in els]
                idx_b = {b: i for i, b in enumerate(els_b)}
                pad = bytes(range(256))
                tables = [b + pad[self.degree:] for b in els_b]
                for a in range(n):
                    pa = els_b[a]
                    base = a * n
                    for b in range(n):
                        mt[base + b] = idx_b[pa.translate(tables[b])]
            else:
                idx = self.index
                for a in range(n):
                    pa = els[a]
                    base = a * n
                    for b in range(n):
                        pb = els[b]
                        mt[base + b] = idx[tuple(map(pb.__getitem__, pa))]
            self._table = mt
        return self._table

    @property
    def inverse(self) -> list[int]:
        if self._inv is None:
            idx = self.index
            inv = [0] * self.order
            for i, p in enumerate(self.elements):
                q = [0] * self.degree
                for a, b in enumerate(p):
                    q[b] = a
                inv[i] = idx[tuple(q)]
            self._inv = inv
        return self._inv

    @property
    def element_orders(self) -> list[int]:
        if self._elt_orders is None:
            orders = []
            for p in self.elements:
                orders.append(Permutation(p).order())
            self._elt_orders = orders
        return self._elt_orders

    # -- element arithmetic --------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a * self.order + b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        mt = self.table
        n = self.order
        return mt[mt[self.inverse[g] * n + x] * n + g]

    def permutation(self, a: int) -> Permutation:
        return Permutation(self.elements[a])

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = all(self.mul(a, b) == self.mul(b, a)
                                for a in self.gens for b in self.gens)
        return self._abelian

    @property
    def center_mask(self) -> int:
        if self._center is None:
            mt = self.table
            n = self.order
            m = 0
            for x in range(n):
                if all(mt[x * n + g] == mt[g * n + x] for g in self.gens):
                    m |= 1 << x
            self._center = m
        return self._center

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def __repr__(self):
        tag = self.spec or f"degree {self.degree}"
        return f"FiniteGroup({tag}, order={self.order})"


# -- construction -------------------------------------------------------

def generate_group(gens, cap: int = DEFAULT_ORDER_CAP, degree: int | None = None,
                   spec: str | None = None) -> FiniteGroup:
    """Close a generator list under multiplication (BFS from the identity).

    An empty generator list yields the trivial group on `degree` points
    (default 1).  Raises ClosureExceedsCap when the closure passes `cap`.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if gens:
        degs = {g.degree for g in gens}
        if len(degs) != 1:
            raise ValueError(f"generators of mixed degree: {sorted(degs)}")
        degree = degs.pop()
    else:
        degree = degree or 1
    e = tuple(range(degree))
    elements = [e]
    index = {e: 0}
    gen_tuples = [g.images for g in gens]
    i = 0
    while i < len(elements):
        x = elements[i]
        i += 1
        for gt in gen_tuples:
            y = tuple(map(gt.__getitem__, x))
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                if len(elements) > cap:
                    raise ClosureExceedsCap(cap)
    return FiniteGroup(elements, (index[g.images] for g in gens), spec=spec)


def _sym_gens(n):
    if n < 2:
        return []
    cyc = Permutation.from_cycles([tuple(range(n))], n)
    if n == 2:
        return [cyc]
    return [Permutation.from_cycles([(0, 1)], n), cyc]


def _alt_gens(n):
    if n < 3:
        return []
    if n == 3:
        return [Permutation.from_cycles([(0, 1, 2)], n)]
    three = Permutation.from_cycles([(0, 1, 2)], n)
    if n % 2 == 1:
        big = Permutation.from_cycles([tuple(range(n))], n)
    else:
        big = Permutation.from_cycles([tuple(range(1, n))], n)
    return [three, big]


def _cyc_gens(n):
    if n < 2:
        return []
    return [Permutation.from_cycles([tuple(range(n))], n)]


def _dih_gens(n):
    if n == 1:
        return [Permutation.from_cycles([(0, 1)], 2)]
    if n == 2:
        return [Permutation.from_cycles([(0, 1)], 4),
                Permutation.from_cycles([(2, 3)], 4)]
    rot = Permutation.from_cycles([tuple(range(n))], n)
    refl = Permutation(tuple((n - i) % n for i in range(n)))
    return [rot, refl]


# Q8 on its 8 elements [1, -1, i, -i, j, -j, k, -k]: left multiplication
# by i and by j.
_QUAT_GENS = [Permutation((2, 3, 1, 0, 6, 7, 5, 4)),
              Permutation((4, 5, 7, 6, 1, 0, 2, 3))]


def _shift(perm: Permutation, before: int, total: int) -> Permutation:
    """Embed a permutation on points before..before+deg-1 of a larger set."""
    images = list(range(total))
    for i, j in enumerate(perm.images):
        images[before + i] = before + j
    return Permutation(images)


def _split_atoms(text):
    """Split on 'x' separators outside perm:[...] brackets."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", i)
        elif ch in "xX" and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '['", len(text) - 1)
    parts.append((text[start:], start))
    return parts


def _parse_atom(atom: str, pos: int) -> list[Permutation]:
    atom = atom.strip()
    if not atom:
        raise ParseError("empty atom", pos)
    low = atom.lower()
    if low.startswith("perm:"):
        body = atom[len("perm:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("perm atom needs [ ... ]", pos)
        words = [w for w in body[1:-1].split(";") if w.strip()]
        if not words:
            raise ParseError("perm atom lists no generators", pos)
        degree = 0
        for w in words:
            for m in _CYCLE_POINTS.finditer(w):
                degree = max(degree, int(m.group(0)))
        if degree == 0:
            raise ParseError("perm atom mentions no points", pos)
        return [parse_cycles(w, degree=degree, offset=pos) for w in words]
    if ":" not in atom:
        raise ParseError(f"unknown atom {atom!r}", pos)
    head, _, tail = atom.partition(":")
    head = head.strip().upper()
    try:
        n = int(tail)
    except ValueError:
        raise ParseError(f"atom parameter {tail!r} is not an integer", pos) from None
    if n < 1:
        raise ParseError("atom parameter must be positive", pos)
    if head == "S":
        return _sym_gens(n)
    if head == "A":
        return _alt_gens(n)
    if head == "C":
        return _cyc_gens(n)
    if head == "D":
        return _dih_gens(n)
    if head == "Q":
        if n != 8:
            raise ParseError("only Q:8 is supported", pos)
        return list(_QUAT_GENS)
    raise ParseError(f"unknown atom kind {head!r}", pos)


def _atom_degree(gens: list[Permutation]) -> int:
    return gens[0].degree if gens else 1


def build_from_spec(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from the spec grammar.

    atom := S:n | A:n | C:n | D:n | Q:8 | perm:[cycles;cycles;...]
    expr := atom ('x' atom)*

    Cycles in perm atoms are 1-based.  Direct product factors act on
    disjoint point sets.
    """
    text = spec.strip()
    if not text:
        raise ParseError("empty spec", 0)
    atom_gens = [(_parse_atom(a, p), p) for a, p in _split_atoms(text)]
    degrees = [_atom_degree(g) for g, _ in atom_gens]
    total = sum(degrees)
    gens = []
    before = 0
    for (agens, _), deg in zip(atom_gens, degrees):
        gens.extend(_shift(g, before, total) for g in agens)
        before += deg
    return generate_group(gens, cap=cap, degree=total, spec=text)


# -- subgroups as bitsets ------------------------------------------------

class Subgroup:
    """A subgroup as an element-index bitset with a generator witness.

    `gens` may be None for deserialized subgroups; callers needing a
    witness go through SubgroupLattice.witness().
    """

    __slots__ = ("mask", "order", "gens")

    def __init__(self, mask: int, gens=None):
        self.mask = mask
        self.order = mask.bit_count()
        self.gens = tuple(gens) if gens is not None else None

    def elements(self) -> list[int]:
        return list(bits(self.mask))

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & ~self.mask == 0

    def __contains__(self, elt: int) -> bool:
        return (self.mask >> elt) & 1 == 1

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return f"Subgroup(order={self.order})"


def closure_mask(G: FiniteGroup, gen_idxs) -> int:
    """Bitset of the subgroup generated by the given element indices."""
    mt = G.table
    n = G.order
    e = G.identity
    mask = 1 << e
    todo = [e]
    gen_idxs = list(gen_idxs)
    while todo:
        x = todo.pop()
        base = x * n
        for g in gen_idxs:
            y = mt[base + g]
            if not (mask >> y) & 1:
                mask |= 1 << y
                todo.append(y)
    return mask


def extend_closure(G: FiniteGroup, h_mask: int, h_elems, h_gens, x: int) -> int:
    """Bitset of <H, x> given H's elements; fills whole cosets of H at once."""
    if (h_mask >> x) & 1:
        return h_mask
    mt = G.table
    n = G.order
    mask = h_mask
    step_gens = tuple(h_gens) + (x,)
    todo = [x]
    while todo:
        r = todo.pop()
        if (mask >> r) & 1:
            continue
        for h in h_elems:
            mask |= 1 << mt[h * n + r]
        for s in step_gens:
            todo.append(mt[r * n + s])
    return mask


def conjugate_mask(G: FiniteGroup, mask: int, g: int) -> int:
    """Bitset of g^-1 * H * g."""
    mt = G.table
    n = G.order
    gi = G.inverse[g]
    out = 0
    for x in bits(mask):
        out |= 1 << mt[mt[gi * n + x] * n + g]
    return out


def is_normal_mask(G: FiniteGroup, mask: int) -> bool:
    return all(conjugate_mask(G, mask, g) == mask for g in G.gens)


def normalizer_of(G: FiniteGroup, mask: int, gens) -> int:
    """Bitset of N_G(H) for H = <gens> with the given bitset.

    g normalizes H exactly when it conjugates each generator of H into H,
    so the test costs |gens| table reads per element of G."""
    mt = G.table
    n = G.order
    inv = G.inverse
    # normal: G's generators already normalize H
    if all((mask >> mt[mt[inv[g] * n + h] * n + g]) & 1 for g in G.gens for h in gens):
        return G.full_mask()
    out = 0
    for g in range(n):
        gi = inv[g] * n
        for h in gens:
            if not (mask >> mt[mt[gi + h] * n + g]) & 1:
                break
        else:
            out |= 1 << g
    return out


def normal_closure_mask(G: FiniteGroup, seed_idxs) -> tuple[int, list[int]]:
    """Smallest normal subgroup containing the seeds, plus a witness list."""
    gens = list(seed_idxs)
    mask = closure_mask(G, gens)
    queue = list(gens)
    while queue:
        x = queue.pop()
        for g in G.gens:
            y = G.conj(x, g)
            if not (mask >> y) & 1:
                mask = extend_closure(G, mask, list(bits(mask)), gens, y)
                gens.append(y)
                queue.append(y)
    return mask, gens


def commutator_mask(G: FiniteGroup, a_mask: int, b_mask: int) -> int:
    """Bitset of [A, B] = <a^-1 b^-1 a b>, closed normally in <A, B>... here
    taken literally as the subgroup generated by all commutators of the two
    element sets (sufficient for derived and lower central series)."""
    mt = G.table
    n = G.order
    inv = G.inverse
    seeds = set()
    for a in bits(a_mask):
        ia = inv[a]
        for b in bits(b_mask):
            c = mt[mt[mt[ia * n + inv[b]] * n + a] * n + b]
            seeds.add(c)
    return closure_mask(G, seeds)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """Derived subgroup G' as a bitset; normal in G by construction."""
    mt = G.table
    n = G.order
    inv = G.inverse
    seeds = set()
    for a in G.gens:
        ia = inv[a]
        for b in G.gens:
            seeds.add(mt[mt[mt[ia * n + inv[b]] * n + a] * n + b])
    seeds.discard(G.identity)
    if not seeds:
        return Subgroup(1 << G.identity, gens=())
    mask, witness = normal_closure_mask(G, sorted(seeds))
    return Subgroup(mask, gens=witness)


def derived_series(G: FiniteGroup) -> list[int]:
    """Masks G >= G' >= G'' >= ..., stopping when stable."""
    series = [G.full_mask()]
    while True:
        nxt = commutator_mask(G, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable(G: FiniteGroup) -> bool:
    return derived_series(G)[-1] == 1 << G.identity


def is_nilpotent(G: FiniteGroup) -> bool:
    """Lower central series reaches the trivial subgroup."""
    full = G.full_mask()
    cur = full
    while True:
        nxt = commutator_mask(G, full, cur)
        if nxt == cur:
            return cur == 1 << G.identity
        cur = nxt


def quotient_group(G: FiniteGroup, N: Subgroup):
    """Quotient by a normal subgroup as a permutation group on cosets.

    Returns (Q, projection) with projection[g] = index in Q of the coset
    of g; the regular action of G on the cosets of N, with Q enumerated
    by BFS over the projected generators of G.
    """
    if not is_normal_mask(G, N.mask):
        raise NotNormal("subgroup is not normal")
    mt = G.table
    n = G.order
    n_elems = N.elements()
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for h in n_elems:
            coset_of[mt[h * n + x]] = c
    k = len(reps)
    # right-multiplication action on cosets: coset(r) -> coset(r*g)
    proj_gens = []
    for g in G.gens:
        images = tuple(coset_of[mt[r * n + g]] for r in reps)
        proj_gens.append(Permutation(images))
    Q = generate_group(proj_gens, cap=k, degree=k,
                       spec=f"({G.spec})/N{N.order}" if G.spec else None)
    # map each coset-permutation back to a Q element index
    projection = [0] * n
    for x in range(n):
        images = tuple(coset_of[mt[r * n + x]] for r in reps)
        projection[x] = Q.index[images]
    return Q, projection


def subgroup_image_mask(proj: list[int], mask: int) -> int:
    """Push a subgroup bitset through a quotient projection."""
    out = 0
    for x in bits(mask):
        out |= 1 << proj[x]
    return out
