"""Shared per-session caches so test modules reuse heavy lattices."""

from collections import Counter
from itertools import product
from operator import itemgetter

from moebius import build_from_spec, enumerate_subgroups
from moebius.automorphisms import (Automorphism, _extend_images, full_automorphism_group,
                                   inner_automorphisms, trivial_automorphisms)
from moebius.classposet import build_class_poset
from moebius.errors import NotAHomomorphism, NotBijective
from moebius.groups import conjugate_mask, find_witness, quotient_group
from moebius.lattice import SubgroupLattice, mu_column
from moebius.mulambda import MuLambdaAnalyzer

# PSU(3,3) on the 28 isotropic points of the hermitian form over GF(9):
# a base-swapping involution and an order-7 element (derived from unitary
# matrices; the pair generates the full group of order 6048)
PSU33_SPEC = (
    "perm:["
    "(1,8)(2,7)(3,6)(4,5)(9,16)(10,15)(11,13)(12,14)(17,18)(19,20)(21,27)(22,28);"
    "(1,18,22,3,16,20,21)(2,11,14,13,10,19,28)(4,23,8,24,5,17,27)"
    "(6,12,9,26,7,15,25)]"
)

_groups = {}
_lattices = {}
_actions = {}
_posets = {}
_analyzers = {}


def group(spec):
    if spec not in _groups:
        _groups[spec] = build_from_spec(spec)
    return _groups[spec]


def lattice(spec):
    if spec not in _lattices:
        _lattices[spec] = enumerate_subgroups(group(spec))
    return _lattices[spec]


def sublattice(lat, keep=lambda i: True):
    """A new lattice of lat's subgroups whose ids pass `keep`: lat's
    conjugacy orbits cut to them, with the normalizers lat keeps at its
    representatives, and none of its lazily computed data."""
    subs = lat.subgroups
    orbits = [[subs[j].mask for j in orbit if keep(j)] for _, orbit in lat.conjugation.classes]
    return SubgroupLattice(lat.group, [s for i, s in enumerate(subs) if keep(i)],
                           [orbit for orbit in orbits if orbit],
                           {subs[r].mask: lat.normalizer_mask(r)
                            for r in lat.class_representatives() if keep(r)})


def action(spec, aut="inn"):
    """aut: 'inn' | '1' | 'aut' | ('inn', K_subgroup_order, k)"""
    key = (spec, aut)
    if key not in _actions:
        G = group(spec)
        if aut == "1":
            A = trivial_automorphisms(G)
        elif aut == "inn":
            A = inner_automorphisms(G)
        elif aut == "aut":
            A = full_automorphism_group(G)
        else:
            _, order, k = aut
            lat = lattice(spec)
            A = inner_automorphisms(G, lat.subgroups[lat.by_order[order][k]])
        _actions[key] = A
    return _actions[key]


def poset(spec, aut="inn"):
    """The class poset of lattice(spec) under action(spec, aut)."""
    key = (spec, aut)
    if key not in _posets:
        _posets[key] = build_class_poset(lattice(spec), action(spec, aut))
    return _posets[key]


def analyzer(spec):
    if spec not in _analyzers:
        _analyzers[spec] = MuLambdaAnalyzer(group(spec), lattice(spec))
    return _analyzers[spec]


def subgroups_of_order(spec, order):
    lat = lattice(spec)
    return [lat.subgroups[i] for i in lat.by_order.get(order, [])]


def class_by(poset_, order=None, lam=None, mu=None, normal=None):
    """The unique class matching the given structural signature."""
    from moebius.groups import is_normal_mask
    G = poset_.lattice.group
    hits = []
    for c in range(len(poset_.classes)):
        rep = poset_.rep(c)
        if order is not None and rep.order != order:
            continue
        if lam is not None and poset_.mu_top[c] != lam:
            continue
        if mu is not None and poset_.lattice.mu_top[poset_.classes[c][0]] != mu:
            continue
        if normal is not None and is_normal_mask(G, rep.mask) != normal:
            continue
        hits.append(c)
    assert len(hits) == 1, f"signature matched {len(hits)} classes"
    return hits[0]


# -- brute oracles for the inclusion relation ----------------------------------

def brute_relation(lat):
    """(up, down) of the lattice by testing every pair of subgroup masks.

    Ids follow (order, mask), so a proper subgroup always has the smaller id."""
    subs = lat.subgroups
    up = [[] for _ in subs]
    down = [[] for _ in subs]
    for j, k in enumerate(subs):
        for i in range(j):
            if subs[i].mask & ~k.mask == 0:
                up[i].append(j)
                down[j].append(i)
    return up, down


def brute_exact_counts(down, sizes, t):
    """vals[K] = sizes[K]^t - the sum of vals[J] over the proper subgroups
    J of K, K ascending, from the pairwise `down` lists."""
    vals = []
    for k, below in enumerate(down):
        vals.append(sizes[k] ** t - sum(vals[j] for j in below))
    return vals


def brute_class_up(pos):
    """up of a class poset: d is above c when some orbit member of c lies
    in the representative of d, tested mask against mask."""
    subs = pos.lattice.subgroups
    n = len(pos.classes)
    up = [[] for _ in range(n)]
    for c in range(n):
        omasks = [subs[m].mask for m in pos.orbit(c)]
        for d in range(n):
            rep_mask = pos.rep(d).mask
            if d != c and any(m & ~rep_mask == 0 for m in omasks):
                up[c].append(d)
    return up


def brute_mu_top(up, top):
    """mu(x, top) from the defining sum over the strict up-sets, by memoized
    recursion on x."""
    memo = {top: 1}

    def mu(x):
        if x not in memo:
            memo[x] = -sum(mu(y) for y in up[x])
        return memo[x]

    return [mu(x) for x in range(len(up))]


_pair_memo = {}   # (poset, within) -> (strict up-sets, {(x, y): mu})


def recursive_mu(pos, x, y, within=None):
    """mu(x, y) of a class poset by the defining recursion along the strict
    up-sets, mu(x, y) = -sum of mu(x, z) over x <= z < y, memoized per
    poset and `within`.  With `within`, the Moebius function of the
    subposet of those classes: only they may lie strictly between x and y."""
    key = (pos, within)
    if key not in _pair_memo:
        _pair_memo[key] = ([set(u) for u in pos.up], {})
    ups, memo = _pair_memo[key]

    def mu(x, y):
        if x == y:
            return 1
        if y not in ups[x]:
            return 0
        if (x, y) not in memo:
            memo[x, y] = -1 - sum(mu(x, z) for z in ups[x]
                                  if y in ups[z] and (within is None or z in within))
        return memo[x, y]

    return mu(x, y)


def summed_columns(rows, zs, blocks=None):
    """The sum of the columns mu(., z) of a poset given by `mu_column`'s
    rows (and blocks) over the items z in zs, added up column by column:
    one single-seed sweep per z, all zeros for no z."""
    total = [0] * len(rows)
    for z in zs:
        total = [a + b for a, b in zip(total, mu_column(rows, [z], blocks))]
    return total


def brute_relative_counts(lat, N, lifts, t):
    """The literal scan behind the relative counts: over every (n_1..n_t)
    in N^t, the closure <g_1 n_1, .., g_t n_t> by `closure_mask`, counted
    by its bitset, for the lifts g of a tuple generating G modulo N."""
    G = lat.group
    return Counter(closure_mask(G, [G.mul(g, x) for g, x in zip(lifts, ns)])
                   for ns in product(N.elements(), repeat=t))


def brute_lift_scan(lat, N, lifts, t):
    """The number of the scanned lifted tuples that generate G."""
    return brute_relative_counts(lat, N, lifts, t)[lat.group.full_mask()]


# -- reference BFS for subgroup closure -----------------------------------------

def brute_quotient_generable(G, N, t):
    """Whether some t-tuple generates G/N: a scan of every t-tuple of
    elements of `quotient_group`'s Q, each closed by `closure_mask`."""
    Q, _ = quotient_group(G, N)
    full = Q.full_mask()
    return any(closure_mask(Q, gens) == full for gens in product(range(Q.order), repeat=t))


def closure_mask(G, gen_idxs):
    """Bitset of the subgroup generated by the given element indices: BFS
    from the identity over right multiplication by the generators.  The
    engine grows subgroups by cosets (`groups.closure`); this is the
    independent reference its tests compare against.  Products are read
    off the table, or above 256 elements, where the group has none,
    composed from image tuples (`composed`), never through the group's
    primitives."""
    n = G.order
    e = G.identity
    mask = 1 << e
    todo = [e]
    gen_idxs = list(gen_idxs)
    if n <= 256:
        mt = G.table

        def right_products(x):
            base = x * n
            return [mt[base + g] for g in gen_idxs]
    else:
        def right_products(x):
            return composed(G, x, gen_idxs)
    while todo:
        x = todo.pop()
        for y in right_products(x):
            if not (mask >> y) & 1:
                mask |= 1 << y
                todo.append(y)
    return mask


def composed(G, x, ys):
    """x*y for each y in ys (x applied first), composed from the elements'
    image tuples and looked up in G.index: the left coset x*H when ys
    lists H."""
    els = G.elements
    x_then = itemgetter(*els[x])
    return [G.index[x_then(els[y])] for y in ys]


# -- reference normalizer -------------------------------------------------------

def brute_normalizer(G, mask):
    """N_G(H) = {g : g^-1 H g = H}, by conjugating H by every element."""
    return sum(1 << g for g in range(G.order) if conjugate_mask(G, mask, g) == mask)


# -- reference centre -----------------------------------------------------------

def brute_center_mask(G):
    """Z(G) = {x : xg = gx for all g in G}, by comparing both products."""
    return sum(1 << x for x in range(G.order)
               if all(G.mul(x, g) == G.mul(g, x) for g in range(G.order)))


# -- reference BFS for the element order ----------------------------------------

def reference_elements(gen_images, degree):
    """The element list of the permutation group generated by the image
    tuples: BFS from the identity, each element x in turn times each
    generator g in the given order, (x*g)[i] = g[x[i]], appended when new.
    Every element index of the engine follows this order."""
    e = tuple(range(degree))
    elements = [e]
    met = {e}
    for x in elements:      # grows while it is walked
        for gt in gen_images:
            y = tuple(map(gt.__getitem__, x))
            if y not in met:
                met.add(y)
                elements.append(y)
    return elements


# -- inclusion-exclusion oracle for omega -------------------------------------

# inclusion-exclusion sums 2^k - 1 terms over an orbit of k subgroups
INCLUSION_EXCLUSION_MAX_ORBIT = 20


def omega_inclusion_exclusion(pos, c, t):
    """omega(pos, c, t), the size of the union over the orbit of class c of
    the t-th cartesian powers, by inclusion-exclusion on the orbit."""
    subs = pos.lattice.subgroups
    omasks = [subs[i].mask for i in pos.orbit(c)]
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


# -- brute oracle for the full automorphism group ------------------------------

def brute_automorphisms(G):
    """Every automorphism of G, sorted by map, by backtracking over the
    images of a generator list: each image has its generator's order, and
    every complete assignment must extend to a bijective homomorphism."""
    gens = find_witness(G, G.full_mask())
    orders = G.element_orders
    candidates = [[x for x in range(G.order) if orders[x] == orders[g]] for g in gens]
    found = []
    images = [0] * len(gens)

    def descend(k):
        for c in candidates[k]:
            images[k] = c
            try:
                known = _extend_images(G, gens[:k + 1], images[:k + 1])
            except (NotAHomomorphism, NotBijective):
                continue
            if k + 1 < len(gens):
                descend(k + 1)
            elif len(known) == G.order:
                found.append(Automorphism(known[i] for i in range(G.order)))

    if gens:
        descend(0)
    else:
        found.append(Automorphism(range(G.order)))
    return sorted(found, key=lambda a: a.map)
