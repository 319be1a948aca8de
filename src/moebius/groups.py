"""Fully enumerated finite permutation groups and element-index arithmetic.

Every group is materialized as an ordered element list (BFS from the
identity, generators in the given order) so that indices are reproducible
across runs.  All heavy machinery downstream works on element indices and
on subgroup bitsets (Python ints, bit i = element i).
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from math import gcd
from operator import itemgetter
from struct import Struct

from .errors import BudgetExceeded, ClosureExceedsCap, NotNormal, ParseError
from .perm import Permutation, parse_cycles

_CYCLE_POINTS = re.compile(r"\d+")

DEFAULT_ORDER_CAP = 10000
# The multiplication table stores element indices as 2-byte "H" entries,
# so it can hold groups of at most 65 536 elements (indices 0..65 535).
MAX_TABLE_ORDER = 1 << 16


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
                 "spec", "_table", "_inv", "_elt_orders", "_center", "_conjugations")

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
        self._center = None
        self._conjugations = None

    # -- lazy tables ---------------------------------------------------

    @property
    def table(self) -> array:
        """Flat multiplication table: index of x*y at [x*order + y], one
        2-byte unsigned entry each, so 2*|G|^2 bytes in all.  A group of
        more than MAX_TABLE_ORDER elements has indices that do not fit in
        2 bytes; it raises BudgetExceeded before anything is allocated.

        Only generators s are composed with elements, (s*b)[i] = b[s[i]]; the
        row of x*s is the row of x gathered at s*b, as (x*s)*b = x*(s*b).

        Rows are filled one left coset r<t> at a time, t the generator of
        largest order: the row of r*t^(i+1) is gathered from the row of
        r*t^i still in hand, so a row is read back from the table once per
        coset, not once per element.  The first row met in a new coset,
        y = x*s for another generator s, marks the whole coset: y*t^i is
        that row read at t^i.  Row x holds x itself at the identity."""
        if self._table is None:
            n = self.order
            if n > MAX_TABLE_ORDER:
                raise BudgetExceeded(n, MAX_TABLE_ORDER,
                                     "group order for the 2-byte multiplication table")
            els = self.elements
            idx = self.index
            mt = array("H", bytes(2 * n * n))
            e = self.identity
            mt[e * n:(e + 1) * n] = array("H", range(n))
            steps = []
            for s in dict.fromkeys(self.gens):
                if s != e:
                    compose = itemgetter(*els[s])  # image tuple of b -> that of s*b
                    steps.append((s, itemgetter(*[idx[compose(pb)] for pb in els])))
            pack_row = Struct(f"{n}H").pack_into
            powers = [e]                # t^0, t^1, ... t^(k-1)
            if steps:
                steps.sort(key=lambda step: -Permutation(els[step[0]]).order())
                t, left_t = steps.pop(0)
                compose = itemgetter(*els[t])
                y = t
                while y != e:
                    powers.append(y)
                    y = idx[compose(els[y])]
            seen = bytearray(n)
            for y in powers:
                seen[y] = 1
            todo = [e]                  # the first row met in each coset
            for r in todo:
                row_x = mt[r * n:(r + 1) * n].tolist()
                for i in range(len(powers)):
                    if i:               # x*t from x = r*t^(i-1)
                        row_x = left_t(row_x)
                        pack_row(mt, 2 * row_x[e] * n, *row_x)
                    for s, left in steps:
                        y = row_x[s]
                        if not seen[y]:
                            row_y = left(row_x)
                            pack_row(mt, 2 * y * n, *row_y)
                            for p in powers:
                                seen[row_y[p]] = 1
                            todo.append(y)
            if len(todo) * len(powers) != n:
                raise ValueError("the generators do not generate the elements")
            self._table = mt
        return self._table

    @property
    def inverse(self) -> list[int]:
        if self._inv is None:
            self._walk_powers()
        return self._inv

    @property
    def element_orders(self) -> list[int]:
        if self._elt_orders is None:
            self._walk_powers()
        return self._elt_orders

    def _walk_powers(self):
        """Inverses and element orders read off the table: the powers of
        each element x not yet met are walked once, and for x of order k,
        x^j has order k/gcd(j, k) and inverse x^(k-j)."""
        mt = self.table
        n = self.order
        e = self.identity
        orders = [0] * n
        inv = [0] * n
        orders[e] = 1
        inv[e] = e
        for x in range(n):
            if orders[x]:
                continue
            powers = [x]            # x^1 .. x^(k-1)
            y = mt[x * n + x]
            while y != e:
                powers.append(y)
                y = mt[y * n + x]
            k = len(powers) + 1
            for j, y in enumerate(powers, 1):
                orders[y] = k // gcd(j, k)
                inv[y] = powers[k - j - 1]
        self._elt_orders = orders
        self._inv = inv

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

    def conjugation_map(self, g: int) -> list[int]:
        """x -> g^-1 * x * g for every element x."""
        mt = self.table
        n = self.order
        gi = self.inverse[g] * n
        return [mt[mt[gi + x] * n + g] for x in range(n)]

    @property
    def conjugations(self) -> list[tuple[int, list[int]]]:
        """(g, conjugation_map(g)) for each distinct generator g whose map
        is not the identity, built once; these maps are all of Inn(G)'s
        generators and also give the centre."""
        if self._conjugations is None:
            ident = list(range(self.order))
            self._conjugations = [(g, x_to_xg) for g in dict.fromkeys(self.gens)
                                  if (x_to_xg := self.conjugation_map(g)) != ident]
        return self._conjugations

    def permutation(self, a: int) -> Permutation:
        return Permutation(self.elements[a])

    @property
    def center_mask(self) -> int:
        """Z(G): x is central exactly when it commutes with every
        generator, that is, when every kept conjugation map fixes it."""
        if self._center is None:
            fixed = range(self.order)
            for _, x_to_xg in self.conjugations:
                fixed = [x for x in fixed if x_to_xg[x] == x]
            self._center = sum(1 << x for x in fixed)
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

    Elements are listed in the order they are met: each element x in
    turn, times each generator g in the given order, x*g appended when
    new.  That order fixes every element index downstream, so it must not
    change.  (x*g)[i] = g[x[i]], so one `itemgetter(*x)` per element reads
    every x*g off the generators' image tuples.

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
    # on one point every permutation is the identity (and itemgetter with
    # one index would return a point, not a tuple)
    gen_tuples = [g.images for g in gens] if degree > 1 else []
    i = 0
    while i < len(elements):
        compose = itemgetter(*elements[i])  # image tuple of g -> that of x*g
        i += 1
        for gt in gen_tuples:
            y = compose(gt)
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

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return f"Subgroup(order={self.order})"


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def flags_to_mask(flags: bytearray) -> int:
    """The bitset whose bit i is flags[i] (each flag 0 or 1)."""
    return int(flags[::-1].translate(_BINARY_DIGITS), 2)


def extend_closure(G: FiniteGroup, h_mask: int, h_elems, h_gens, x: int) -> int:
    """Bitset of <H, x> given H's elements and generators h_gens; fills
    whole cosets of H at once.  The left coset r*H is row r of the table
    read at H's elements.

    When x normalizes H (x^-1*h*x lies in H for each generator h), <H, x>
    is the union of the cosets x^i*H, i = 0 .. k-1, with x^k the first
    power of x in H; they are filled straight into the bitset, and when
    k*|H| = |G| the answer is G without filling any.

    Otherwise members are bytes, one per element, read into a bitset once
    at the end, and cosets are walked by left multiplication, s*(r*H) =
    (s*r)*H.  Lagrange stop: [<H, x> : H] divides [G : H], so once more
    cosets are found than the largest proper divisor of [G : H], <H, x>
    is all of G and G is returned without filling the rest."""
    if (h_mask >> x) & 1:
        return h_mask
    mt = G.table
    n = G.order
    xi = G.inverse[x] * n
    for h in h_gens:
        if not (h_mask >> mt[mt[xi + h] * n + x]) & 1:
            break
    else:
        reps = []
        r = x
        while not (h_mask >> r) & 1:
            reps.append(r)
            r = mt[r * n + x]
        if (len(reps) + 1) * len(h_elems) == n:
            return (1 << n) - 1
        mask = h_mask
        for r in reps:
            base = r * n
            for h in h_elems:
                mask |= 1 << mt[base + h]
        return mask
    member = bytearray(n)
    for h in h_elems:
        member[h] = 1
    # cosets beyond H itself that may be filled before <H, x> must be G
    room = _largest_proper_divisor(n // len(h_elems)) - 1
    step_gens = tuple(h_gens) + (x,)
    todo = [x]
    while todo:
        r = todo.pop()
        if member[r]:
            continue
        if not room:
            return (1 << n) - 1
        room -= 1
        base = r * n
        for h in h_elems:
            member[mt[base + h]] = 1
        for s in step_gens:
            todo.append(mt[s * n + r])
    return int(member[::-1].translate(_BINARY_DIGITS), 2)


@lru_cache(maxsize=None)
def _largest_proper_divisor(m: int) -> int:
    """m over its smallest prime factor (1 for m = 1)."""
    p = 2
    while p * p <= m:
        if m % p == 0:
            return m // p
        p += 1
    return 1


def closure(G: FiniteGroup, xs, mask: int | None = None,
            gens=()) -> tuple[int, list[int]]:
    """(bitset, generators) of <K, xs>, K = <gens> with bitset `mask`
    (the trivial subgroup by default): each x outside the subgroup so far
    joins it through `extend_closure` and is appended to the generators."""
    if mask is None:
        mask = 1 << G.identity
    gens = list(gens)
    for x in xs:
        if not (mask >> x) & 1:
            mask = extend_closure(G, mask, list(bits(mask)), gens, x)
            gens.append(x)
    return mask, gens


def find_witness(G: FiniteGroup, mask: int) -> tuple[int, ...]:
    """A short generator list for the subgroup with the given bitset: the
    closure of its elements taken by decreasing order."""
    orders = G.element_orders
    cur, gens = closure(G, sorted(bits(mask), key=lambda x: (-orders[x], x)))
    if cur != mask:
        raise ValueError("mask is not closed under multiplication")
    return tuple(gens)


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
    """Whether every element of G conjugates the set into itself: it is
    enough that G's non-central generators do, through the kept maps."""
    return all(subgroup_image_mask(x_to_xg, mask) == mask for _, x_to_xg in G.conjugations)


def normalizer_of(G: FiniteGroup, mask: int, gens,
                  elems=None) -> tuple[int, tuple[int, ...]]:
    """N_G(H) for H = <gens> with the given bitset, as (bitset, generators);
    `elems`, H's elements in any order, spares decoding the bitset.

    g normalizes H exactly when it conjugates each generator of H into H.
    N is grown from H by closure, so the generators are H's plus every
    element that joined N.  Members of N are never tested, and when g
    fails, so does every element g*k of its left coset g*N (k normalizes
    H, so g*k does exactly when g does): the coset is marked and skipped.
    A test costs at most |gens| conjugations, and a failure |N| table
    reads to mark its coset."""
    # normal: G's non-central generators already normalize H
    if all((mask >> x_to_xg[h]) & 1 for _, x_to_xg in G.conjugations for h in gens):
        return G.full_mask(), G.gens
    mt = G.table
    n = G.order
    inv = G.inverse
    norm = mask
    norm_elems = list(bits(mask)) if elems is None else elems
    norm_gens = list(gens)
    decided = bytearray(n)      # in N, or in a coset known to fail
    for x in norm_elems:
        decided[x] = 1
    for g in range(n):
        if decided[g]:
            continue
        gi = inv[g] * n
        for h in gens:
            if not (mask >> mt[mt[gi + h] * n + g]) & 1:
                break
        else:
            norm = extend_closure(G, norm, norm_elems, norm_gens, g)
            norm_gens.append(g)
            norm_elems = list(bits(norm))
            for x in norm_elems:
                decided[x] = 1
            continue
        base = g * n
        for x in norm_elems:
            decided[mt[base + x]] = 1
    return norm, tuple(norm_gens)


def commutator_closure(G: FiniteGroup, xs, ys, within, extra=()) -> tuple[int, list[int]]:
    """Normal closure in <within> of the commutators [x, y] = x^-1 y^-1 x y
    over x in xs and y in ys, and of the `extra` seeds, plus a witness list.

    For H = <xs> = <ys> = <within> this is [H, H]; for G = <xs> = <within>
    and N = <ys> normal in G it is [G, N].  The seeds' closure grows until
    each generator's conjugates by `within` lie in it; a conjugate that
    does not joins the generators, and its own conjugates are checked."""
    mt = G.table
    n = G.order
    inv = G.inverse
    seeds = {mt[mt[mt[inv[x] * n + inv[y]] * n + x] * n + y] for x in xs for y in ys}
    seeds.update(extra)
    mask, gens = closure(G, sorted(seeds))
    queue = list(gens)
    while queue:
        x = queue.pop()
        known = len(gens)
        mask, gens = closure(G, [G.conj(x, g) for g in within], mask, gens)
        queue.extend(gens[known:])
    return mask, gens


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """Derived subgroup G' as a bitset; normal in G by construction."""
    mask, witness = commutator_closure(G, G.gens, G.gens, G.gens)
    return Subgroup(mask, gens=witness)


def derived_series(G: FiniteGroup) -> list[int]:
    """Masks G >= G' >= G'' >= ..., stopping when stable; each term is
    [H, H] over the witness of the term H before it."""
    series = [G.full_mask()]
    witness = G.gens
    while True:
        nxt, witness = commutator_closure(G, witness, witness, witness)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable(G: FiniteGroup) -> bool:
    return derived_series(G)[-1] == 1 << G.identity


def is_nilpotent(G: FiniteGroup) -> bool:
    """Lower central series G >= [G, G] >= [[G, G], G] >= ... reaches the
    trivial subgroup."""
    cur = G.full_mask()
    witness = G.gens
    while True:
        nxt, witness = commutator_closure(G, G.gens, witness, G.gens)
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


def subgroup_image_mask(images, mask: int) -> int:
    """The bitset of the image of a bitset under a map of element indices
    (a quotient projection, an automorphism, a conjugation)."""
    out = 0
    for x in bits(mask):
        out |= 1 << images[x]
    return out
