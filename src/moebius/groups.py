"""Fully enumerated finite permutation groups and element-index arithmetic.

Every group is materialized as an ordered element list (BFS from the
identity, generators in the given order) so that indices are reproducible
across runs.  All heavy machinery downstream works on element indices and
on subgroup bitsets (Python ints, bit i = element i).

Products come only from this module's primitives: `FiniteGroup.mul`,
`products` (x*y for zipped pairs), `powers` (x, x^2, ...), `coset` and
`cosets` (r*h for each h), `conjugates` (g^-1*x*g for each x),
`conjugation_map`, and `product_mask` (the product set AB), read off
the multiplication table (one byte per entry) up to 256 elements and
composed from image words above, one comprehension per call.  The hot
loops here call one primitive per coset, wave of cosets, power walk or
orbit member.  One walk of each cyclic subgroup's powers gives the
element orders, the inverses and the zuppos (`FiniteGroup.zuppos`).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, repeat
from math import gcd
from operator import itemgetter

from .errors import BudgetExceeded, ClosureExceedsCap, NotNormal, ParseError
from .perm import Permutation, orbit, parse_cycles

_CYCLE_POINTS = re.compile(r"\d+")

DEFAULT_ORDER_CAP = 20160
# The BFS stops past this many elements whatever the order cap allows:
# the subgroup lattice of a larger group is out of reach.
MAX_GROUP_ORDER = 1 << 16
# The most points the BFS may hold, |G| elements of `degree` points each,
# whatever the order cap allows: S:8 holds 322 560, C:8192 all 2^26.
MAX_GROUP_POINTS = 1 << 26
# The most elements a group with a multiplication table has; its indices
# fit in one byte, so the table's columns are filled by `bytes.translate`.
TABLE_ORDER = 256


def bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteGroup:
    """An enumerated permutation group.

    Elements are image tuples; `index` inverts the element list.  The
    multiplication table (at most 256 elements) or the image words
    (above), the inverses, the element orders, the zuppos and the
    elements' cycle strings are built lazily and cached.  Instances are
    immutable after construction.
    """

    __slots__ = ("degree", "elements", "index", "order", "identity", "gens",
                 "spec", "_rights", "_table", "_words", "_inv", "_elt_orders", "_zuppos",
                 "_center", "_conjugations", "_cycle_strings")

    def __init__(self, elements, gens, spec=None, rights=None, index=None):
        self.elements = list(elements)
        self.order = len(self.elements)
        self.degree = len(self.elements[0])
        # `index` is the BFS's own dict, which holds each element once;
        # any other element list is inverted here and checked
        if index is None:
            index = {p: i for i, p in enumerate(self.elements)}
            if len(index) != self.order:
                raise ValueError("duplicate elements")
        self.index = index
        self.identity = self.index[tuple(range(self.degree))]
        self.gens = tuple(gens)
        self.spec = spec
        # {g: [x*g for every element x]} per generator g, kept by the BFS
        # for the table's column fill; None to compose them from elements,
        # and above 256 elements, where there is no table
        self._rights = rights
        self._table = None
        self._words = None
        self._inv = None
        self._elt_orders = None
        self._zuppos = None
        self._center = None
        self._conjugations = None
        self._cycle_strings: dict[int, str] = {}

    # -- lazy tables ---------------------------------------------------

    @property
    def table(self) -> bytes:
        """Flat multiplication table of a group of at most 256 elements:
        index of x*y at [x*order + y], one byte each, so |G|^2 bytes in
        all.  A larger group has none (ValueError); its primitives compose
        image words instead (`_composer`).

        A column is a `bytes` of length |G|, and a right-multiplication
        map R_g[x] = x*g is a `bytes.translate` table: the column of y*g
        is the column of y translated through R_g, as x*(y*g) = (x*y)*g.
        The columns are walked from the identity's, bytes(range(n)), along
        the generators and stored with one strided store each; ValueError
        when they miss an element.  The BFS's right maps are then
        dropped."""
        if self._table is None:
            if self.order > TABLE_ORDER:
                raise ValueError(f"no multiplication table above {TABLE_ORDER} elements")
            self._table = self._fill_columns()
            self._rights = None
        return self._table

    def _fill_columns(self) -> bytes:
        n = self.order
        e = self.identity
        rights = self._rights
        if rights is None:
            els = self.elements
            idx = self.index
            rights = {g: [idx[tuple(els[g][i] for i in p)] for p in els]
                      for g in self.gens}
        pad = bytes(256 - n)
        steps = [(r_g, bytes(r_g) + pad) for g, r_g in rights.items() if g != e]
        mt = bytearray(n * n)
        cols = [None] * n
        cols[e] = bytes(range(n))
        todo = [e]
        for y in todo:
            col = cols[y]
            mt[y::n] = col
            for r_g, through_g in steps:
                z = r_g[y]          # y*g
                if cols[z] is None:
                    cols[z] = col.translate(through_g)
                    todo.append(z)
        if len(todo) != n:
            raise ValueError("the generators do not generate the elements")
        return bytes(mt)

    @property
    def _composer(self) -> tuple:
        """(compose, keys, words, index) of a group above 256 elements:
        compose(keys[a], words[b]) is keys[a*b], and index[keys[c]] = c.
        Up to degree 256 a key is an element's image bytes and a word the
        same bytes padded to a `bytes.translate` table, (a*b)[i] = b[a[i]];
        above, both are the image tuples, composed by one `itemgetter`.
        ValueError when the generators do not reach every element."""
        if self._words is None:
            els = self.elements
            if self.degree <= 256:
                pad = bytes(256 - self.degree)
                keys = [bytes(p) for p in els]
                composer = (bytes.translate, keys, [k + pad for k in keys],
                            {k: i for i, k in enumerate(keys)})
            else:
                composer = (lambda a, b: itemgetter(*a)(b), els, els, self.index)
            compose, keys, words, index = composer
            steps = [lambda y, w=words[g]: index[compose(keys[y], w)] for g in self.gens]
            if len(orbit(self.identity, steps)) != self.order:
                raise ValueError("the generators do not generate the elements")
            self._words = composer
        return self._words

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

    @property
    def zuppos(self) -> tuple[list[int], dict[int, list[int]], dict[int, int]]:
        """(zuppo_of, zpowers, power_cands) for the zuppos, the cyclic
        subgroups of prime-power order, each named by its least generator:
        zuppo_of[x] is the least generator of <x> when <x> is a zuppo (-1
        when x is 1 or its order is not a prime power), zpowers[x] that
        generator's powers (`powers`), keyed by the least generators in
        ascending order, and power_cands[y] the bitset of the least
        generators x of the zuppos Z with x^p = y, so that Z^p = <y> (y = 1
        when |Z| = p).  A subgroup holds Z^p exactly when it holds y."""
        if self._zuppos is None:
            self._walk_powers()
        return self._zuppos

    def _walk_powers(self):
        """Element orders, inverses and zuppos: each nontrivial cyclic
        subgroup is walked once, from its least generator x, the first
        element, in index order, that no walk has reached.  For x of order
        k, each generator x^j of <x> (j prime to k) has order k and inverse
        x^(k-j), and when k is a prime power each is recorded under x."""
        n = self.order
        e = self.identity
        orders = [0] * n
        inv = [0] * n
        orders[e] = 1
        inv[e] = e
        zuppo_of = [-1] * n
        zpowers: dict[int, list[int]] = {}
        power_cands: dict[int, int] = {}
        for x in range(n):
            if orders[x]:
                continue
            powers = self.powers(x)
            k = len(powers) + 1
            p = _prime_of_power(k)
            if p:
                zpowers[x] = powers
                y = powers[p - 1] if p < k else e
                power_cands[y] = power_cands.get(y, 0) | 1 << x
            z = x if p else -1
            for j, y in enumerate(powers, 1):
                if gcd(j, k) == 1:
                    orders[y] = k
                    inv[y] = powers[k - j - 1]
                    zuppo_of[y] = z
        self._elt_orders = orders
        self._inv = inv
        self._zuppos = zuppo_of, zpowers, power_cands

    # -- element arithmetic --------------------------------------------

    def mul(self, a: int, b: int) -> int:
        # the table, built on first use, up to 256 elements; False above
        mt = self._table or self.order <= TABLE_ORDER and self.table
        return mt[a * self.order + b] if mt else self.products((a,), (b,))[0]

    def products(self, xs, ys) -> list[int]:
        """x*y for each x in xs and the y at the same place in ys; an
        `itertools.repeat` holds one factor fixed."""
        mt = self._table or self.order <= TABLE_ORDER and self.table
        if mt:
            n = self.order
            return [mt[x * n + y] for x, y in zip(xs, ys)]
        compose, keys, words, index = self._words or self._composer
        return [index[compose(keys[x], words[y])] for x, y in zip(xs, ys)]

    def powers(self, x: int) -> list[int]:
        """x, x^2, ..., x^(k-1) for x of order k (empty for the identity)."""
        e = self.identity
        n = self.order
        mt = self._table or n <= TABLE_ORDER and self.table
        if not mt:
            compose, keys, words, index = self._words or self._composer
            word_x = words[x]
        out = []
        y = x
        while y != e:
            out.append(y)
            y = mt[y * n + x] if mt else index[compose(keys[y], word_x)]
        return out

    def coset(self, r: int, elems) -> list[int]:
        """r*h for each h in elems: the left coset r*H when elems lists H."""
        return self.cosets((r,), elems)

    def cosets(self, rs, elems) -> list[int]:
        """r*h for each r in rs and h in elems, r by r: the left cosets r*H,
        one after the other, when elems lists H."""
        mt = self._table or self.order <= TABLE_ORDER and self.table
        if mt:
            n = self.order
            return [mt[r * n + h] for r in rs for h in elems]
        compose, keys, words, index = self._words or self._composer
        elem_words = [words[h] for h in elems]
        return [index[compose(keys[r], w)] for r in rs for w in elem_words]

    def conjugates(self, xs, g: int) -> list[int]:
        """g^-1 * x * g for each x in xs."""
        gi = (self._inv or self.inverse)[g]
        mt = self._table or self.order <= TABLE_ORDER and self.table
        if mt:
            n = self.order
            gi *= n
            return [mt[mt[gi + x] * n + g] for x in xs]
        compose, keys, words, index = self._words or self._composer
        key_gi, word_g = keys[gi], words[g]
        return [index[compose(compose(key_gi, words[x]), word_g)] for x in xs]

    def conjugation_map(self, g: int) -> list[int]:
        """x -> g^-1 * x * g for every element x."""
        return self.conjugates(range(self.order), g)

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

    def cycle_string(self, a: int) -> str:
        """Element a in 1-based cycle notation, each string made once."""
        text = self._cycle_strings.get(a)
        if text is None:
            text = self._cycle_strings[a] = self.permutation(a).cycle_string()
        return text

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
    every x*g off the generators' image tuples.  Up to 256 elements the
    index of each x*g is kept as the right-multiplication map of g, which
    the table's column fill walks; the dict of indices becomes the
    group's `index`.

    An empty generator list yields the trivial group on `degree` points
    (default 1).  Raises ClosureExceedsCap when the closure passes `cap`,
    and BudgetExceeded as soon as it passes MAX_GROUP_ORDER elements or
    its elements hold more than MAX_GROUP_POINTS points.
    """
    limit = _order_limit(cap)
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
    steps = [(g.images, []) for g in gens] if degree > 1 else []
    add = index.setdefault
    most = min(limit, MAX_GROUP_POINTS // degree)
    n = 1
    for x in elements:
        compose = itemgetter(*x)    # image tuple of g -> that of x*g
        for gt, right in steps:
            y = compose(gt)
            j = add(y, n)
            if j == n:
                elements.append(y)
                n += 1
                if n > most:
                    raise _past_limit(cap) if n > limit else _past_points(n * degree)
            right.append(j)
    gen_ids = [index[g.images] for g in gens]
    rights = {g: right for g, (_, right) in zip(gen_ids, steps)} if n <= TABLE_ORDER else None
    return FiniteGroup(elements, gen_ids, spec=spec, rights=rights, index=index)


def _order_limit(cap: int) -> int:
    """The most elements a group built under the order cap may have."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return min(cap, MAX_GROUP_ORDER)


def _past_limit(cap: int) -> Exception:
    """What a group of more than `_order_limit(cap)` elements raises."""
    if cap <= MAX_GROUP_ORDER:
        return ClosureExceedsCap(cap)
    return BudgetExceeded(MAX_GROUP_ORDER + 1, MAX_GROUP_ORDER, "group order")


def _past_points(points: int) -> Exception:
    """What elements holding more than MAX_GROUP_POINTS points raise."""
    return BudgetExceeded(points, MAX_GROUP_POINTS, "group points (order x degree)")


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


# the order of each named atom, as factors whose product it is:
# |S_n| = n!, |A_n| = max(1, n!/2), |C_n| = n, |D_n| = 2n, |Q_8| = 8
_ORDER_FACTORS = {"S": lambda n: range(2, n + 1), "A": lambda n: range(3, n + 1),
                  "C": lambda n: (n,), "D": lambda n: (2, n), "Q": lambda n: (8,)}


def _parse_atom(atom: str, pos: int) -> tuple:
    """(factors, make) for one atom: make() builds its generators, and the
    product of `factors` is its order; a perm atom has none, as its order
    is known only once its group is built."""
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
        gens = [parse_cycles(w, degree=degree, offset=pos) for w in words]
        return (), lambda: gens
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
    if head not in _ORDER_FACTORS:
        raise ParseError(f"unknown atom kind {head!r}", pos)
    if head == "Q" and n != 8:
        raise ParseError("only Q:8 is supported", pos)
    return _ORDER_FACTORS[head](n), lambda: _named_gens(head, n)


def _named_gens(head: str, n: int) -> list[Permutation]:
    if head == "S":
        return _sym_gens(n)
    if head == "A":
        return _alt_gens(n)
    if head == "C":
        return _cyc_gens(n)
    if head == "D":
        return _dih_gens(n)
    return list(_QUAT_GENS)


def _atom_degree(gens: list[Permutation]) -> int:
    return gens[0].degree if gens else 1


def build_from_spec(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from the spec grammar.

    atom := S:n | A:n | C:n | D:n | Q:8 | perm:[cycles;cycles;...]
    expr := atom ('x' atom)*

    Cycles in perm atoms are 1-based.  Direct product factors act on
    disjoint point sets.

    Size rule: once every atom has parsed, the named atoms' orders, which
    bound |G| from below, are multiplied factor by factor, and a product
    past min(cap, MAX_GROUP_ORDER) raises what the BFS would raise there,
    before any generator is built.  Then the product times the spec's
    degree bounds the points the BFS would hold, and one past
    MAX_GROUP_POINTS raises BudgetExceeded before the BFS starts.
    """
    text = spec.strip()
    if not text:
        raise ParseError("empty spec", 0)
    atoms = [_parse_atom(a, p) for a, p in _split_atoms(text)]
    limit = _order_limit(cap)
    order = 1
    for factor in chain.from_iterable(factors for factors, _ in atoms):
        order *= factor
        if order > limit:
            raise _past_limit(cap)
    atom_gens = [make() for _, make in atoms]
    degrees = [_atom_degree(g) for g in atom_gens]
    total = sum(degrees)
    if order * total > MAX_GROUP_POINTS:
        raise _past_points(order * total)
    gens = []
    before = 0
    for agens, deg in zip(atom_gens, degrees):
        gens.extend(_shift(g, before, total) for g in agens)
        before += deg
    return generate_group(gens, cap=cap, degree=total, spec=text)


# -- subgroups as bitsets ------------------------------------------------

class Subgroup:
    """A subgroup as an element-index bitset with a generator witness."""

    __slots__ = ("mask", "order", "gens")

    def __init__(self, mask: int, gens):
        self.mask = mask
        self.order = mask.bit_count()
        self.gens = tuple(gens)

    def elements(self) -> list[int]:
        return list(bits(self.mask))

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


def fill_cosets(G: FiniteGroup, h_mask: int, h_elems, powers) -> tuple[int, list[int] | range]:
    """(bitset, elements) of <H, x> for an x outside H that normalizes H,
    given H's elements and x's powers x, x^2, ... (`G.powers(x)`): the
    union of the cosets x^i*H, i = 0 .. k-1, with x^k the first power of
    x in H, read by one `cosets` call.  The elements are H's, then each
    coset's.  When k*|H| = |G| the answer is G, elements range(|G|)."""
    n = G.order
    reps = []
    for r in powers:
        if (h_mask >> r) & 1:
            break
        reps.append(r)
    if (len(reps) + 1) * len(h_elems) == n:
        return (1 << n) - 1, range(n)
    found = G.cosets(reps, h_elems)
    mask = h_mask
    for y in found:
        mask |= 1 << y
    return mask, [*h_elems, *found]


def extend_closure(G: FiniteGroup, h_mask: int, h_elems, h_gens, x: int,
                   within: int | None = None) -> int:
    """Bitset of <H, x> given H's elements and generators h_gens; fills
    whole left cosets r*H of H at once.  `within`, when given, is the
    bitset of a perfect subgroup W that holds H and x.

    When x normalizes H (x^-1*h*x lies in H for each generator h), <H, x>
    is filled coset by coset by `fill_cosets`.

    Otherwise members are bytes, one per element, read into a bitset once
    at the end, and cosets are walked by left multiplication, s*(r*H) =
    (s*r)*H, in waves: `cosets` calls fill the wave's new cosets and one
    more gives the next wave, s*r for each generator s and each new
    representative r.  Lagrange stop: [<H, x> : H] divides [T : H], T
    the top (W, or G when no W is given), and a proper subgroup of T has
    index at least `least` in T: 2 in G, and 5 in a perfect W, since a
    subgroup of index n < 5 would give a nontrivial perfect quotient of
    W inside S_n, and S_2, S_3 and S_4 are solvable.  So once more
    cosets are found than the largest divisor d of [T : H] with
    [T : H]/d >= least (`_room`), <H, x> is T, and T is returned without
    filling the rest.  A wave's cosets are composed at most `room`
    representatives at a time, room the cosets still allowed below the
    stop: the first representative outside the members always starts a
    new coset, so no coset past the stop is composed."""
    if (h_mask >> x) & 1:
        return h_mask
    for y in G.conjugates(h_gens, x):
        if not (h_mask >> y) & 1:
            break
    else:
        return fill_cosets(G, h_mask, h_elems, G.powers(x))[0]
    n = G.order
    k = len(h_elems)
    top, least = ((1 << n) - 1, 2) if within is None else (within, 5)
    # cosets beyond H itself that may be filled before <H, x> must be the top
    room = _room(top.bit_count() // k, least) - 1
    member = bytearray(n)
    for h in h_elems:
        member[h] = 1
    step_gens = tuple(h_gens) + (x,)
    wave = [x]
    while wave:
        reps = [r for r in dict.fromkeys(wave) if not member[r]]
        filled = []
        while reps:
            if room <= 0:
                return top
            chunk, reps = reps[:room], reps[room:]
            found = G.cosets(chunk, h_elems)
            for i, r in enumerate(chunk):
                if member[r]:       # in the coset of a representative before it
                    continue
                room -= 1
                filled.append(r)
                for y in found[i * k:(i + 1) * k]:
                    member[y] = 1
            reps = [r for r in reps if not member[r]]
        wave = G.cosets(step_gens, filled)
    return flags_to_mask(member)


@lru_cache(maxsize=None)
def _prime_of_power(n: int) -> int:
    """p when n is a power of the prime p, else 0."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else 0


@lru_cache(maxsize=None)
def _room(index: int, least: int) -> int:
    """The largest divisor d of index with index/d >= least, 0 if none:
    index over its least divisor from `least` up."""
    return next((index // e for e in range(least, index + 1) if index % e == 0), 0)


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
    out = 0
    for y in G.conjugates(bits(mask), g):
        out |= 1 << y
    return out


def product_mask(G: FiniteGroup, a_mask: int, b_mask: int) -> int:
    """Bitset of the product set AB (a subgroup when either factor is normal)."""
    out = 0
    b_elems = list(bits(b_mask))
    for a in bits(a_mask):
        for y in G.coset(a, b_elems):
            out |= 1 << y
    return out


def product_covers(G: FiniteGroup, a_mask: int, n_mask: int) -> bool:
    """Whether AN = G, for a subgroup A and a normal subgroup N:
    |A||N| = |G||A meet N|."""
    return a_mask.bit_count() * n_mask.bit_count() == G.order * (a_mask & n_mask).bit_count()


def is_normal_mask(G: FiniteGroup, mask: int) -> bool:
    """Whether every element of G conjugates the set into itself: it is
    enough that G's non-central generators do, through the kept maps."""
    return all(subgroup_image_mask(x_to_xg, mask) == mask for _, x_to_xg in G.conjugations)


def orbit_and_normalizer(G: FiniteGroup, mask: int, gens,
                         elems=None) -> tuple[list, int, tuple[int, ...]]:
    """(members, N_G(H) bitset, its generators) for H = <gens> with the
    given bitset and, if given, its elements in any order.  The members
    are H's conjugacy class, each as (bitset, elements, witness, a) with
    member H^a and witness gens^a; H is first, with `elems` when given.

    When every kept conjugation map sends H's generators into H, H is
    normal: the class is [H] and N = G.  Otherwise the class is walked
    through the maps of G's non-central generators, last member in first
    out, with N grown by Schreier's lemma.  N starts as <H, G's central
    generators>, which fix every member; when H^(a*g) is a member H^b met
    before, a*g*b^-1 lies in N_G(H) and joins N if outside it.  The class
    and N only grow towards H's class and N_G(H), and |class| * |N_G(H)|
    = |G|, so the walk stops when |members| * |N| = |G|.  Per member, one
    `cosets` call gives a*g for every map, and one `products` call the
    a*g*b^-1 once its maps are walked.  They join N in the order met, as
    they would one map at a time; those an earlier stop would have
    skipped lie in N = N_G(H) and join nothing."""
    conjugations = G.conjugations
    e = G.identity
    members = [(mask, list(bits(mask)) if elems is None else elems, tuple(gens), e)]
    if all((mask >> x_to_xg[h]) & 1 for _, x_to_xg in conjugations for h in gens):
        return members, G.full_mask(), G.gens
    n = G.order
    inv = G.inverse
    movers = [g for g, _ in conjugations]
    norm, norm_gens = closure(G, [g for g in G.gens if g not in movers], mask, gens)
    size = norm.bit_count()     # |N|, counted again only when N grows
    carrier = {mask: e}    # member bitset -> a with member = H^a
    queue = members[:]
    while len(members) * size < n:
        _, m_elems, w, a = queue.pop()
        met, met_inv = [], []   # a*g and b^-1 for each H^(a*g) = H^b met before
        for (_, x_to_xg), ag in zip(conjugations, G.cosets((a,), movers) if a != e else movers):
            c_elems = [x_to_xg[x] for x in m_elems]
            c = 0
            for y in c_elems:
                c |= 1 << y
            b = carrier.get(c)      # c = H^(a*g)
            if b is None:
                carrier[c] = ag
                member = (c, c_elems, tuple(x_to_xg[x] for x in w), ag)
                members.append(member)
                queue.append(member)
                if len(members) * size == n:
                    break
            else:
                met.append(ag)
                met_inv.append(inv[b])
        # a*g*b^-1 normalizes H; once N is N_G(H) none is outside it
        for s in G.products(met, met_inv) if met else ():
            if not (norm >> s) & 1:
                norm, norm_gens = closure(G, (s,), norm, norm_gens)
                size = norm.bit_count()
    return members, norm, tuple(norm_gens)


def commutator_closure(G: FiniteGroup, xs, ys, within, extra=()) -> tuple[int, list[int]]:
    """Normal closure in <within> of the commutators [x, y] = x^-1 y^-1 x y
    over x in xs and y in ys, and of the `extra` seeds, plus a witness list.

    For H = <xs> = <ys> = <within> this is [H, H]; for G = <xs> = <within>
    and N = <ys> normal in G it is [G, N].  The seeds' closure grows until
    each generator's conjugates by `within` lie in it; a conjugate that
    does not joins the generators, and its own conjugates are checked."""
    inv = G.inverse
    seeds = set(extra)
    for y in ys:    # x^-1 * (y^-1*x*y) for each x
        seeds.update(G.products([inv[x] for x in xs], G.conjugates(xs, y)))
    mask, gens = closure(G, sorted(seeds))
    within_invs = [inv[g] for g in within]
    queue = list(gens)
    while queue:
        x = queue.pop()
        known = len(gens)
        # g^-1*x*g for each g in within
        mask, gens = closure(G, G.products(G.products(within_invs, repeat(x)), within), mask, gens)
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
    coset_of, reps = coset_map(G, N)
    k = len(reps)

    def on_cosets(g: int) -> tuple[int, ...]:   # coset(r) -> coset(r*g)
        return tuple(map(coset_of.__getitem__, G.products(reps, repeat(g))))

    proj_gens = [Permutation(on_cosets(g)) for g in G.gens]
    Q = generate_group(proj_gens, cap=k, degree=k,
                       spec=f"({G.spec})/N{N.order}" if G.spec else None)
    # map each coset-permutation back to a Q element index
    projection = [Q.index[on_cosets(x)] for x in range(G.order)]
    return Q, projection


def coset_map(G: FiniteGroup, N: Subgroup) -> tuple[list[int], list[int]]:
    """(coset_of, reps) for the left cosets x*N of N: reps[c] is the least
    element of coset c, ids ascending with it, and coset_of[x] is the id
    of the coset that holds x.  For a normal N these are the elements of
    G/N and their least lifts."""
    coset_of = [-1] * G.order
    reps: list[int] = []
    n_elems = N.elements()
    for x in range(G.order):
        if coset_of[x] < 0:
            for y in G.coset(x, n_elems):
                coset_of[y] = len(reps)
            reps.append(x)
    return coset_of, reps


def subgroup_image_mask(images, mask: int) -> int:
    """The bitset of the image of a bitset under a map of element indices
    (a quotient projection, an automorphism, a conjugation)."""
    out = 0
    for x in bits(mask):
        out |= 1 << images[x]
    return out
