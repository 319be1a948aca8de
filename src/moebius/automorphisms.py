"""Subgroups of Aut(G), held by generator maps on element indices.

An automorphism is stored as the tuple of images of element indices, so
acting on a subgroup bitset is a bit remap.  A group of automorphisms
keeps only its generators: an orbit is closed under the group exactly
when it is closed under the generators, so orbits never need the other
elements, and the full list is closed from the generators only when
it is read.  Every walk over the generators, of maps, element bitsets or
elements, is one `perm.orbit`.  Origin tags record how a group was built.
"""

from __future__ import annotations

from .errors import BoundExceeded, NotAHomomorphism, NotBijective, NotInvariant
from .groups import FiniteGroup, Subgroup, find_witness, subgroup_image_mask
from .perm import orbit

FULL_AUT_DEFAULT_BOUND = 64


class Automorphism:
    """A multiplication-respecting bijection of element indices."""

    __slots__ = ("map",)

    def __init__(self, map_):
        self.map = tuple(map_)

    def apply_mask(self, mask: int) -> int:
        return subgroup_image_mask(self.map, mask)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.map))

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.map == other.map

    def __hash__(self):
        return hash(self.map)


class AutomorphismGroup:
    """The group of automorphisms of one group generated by `gens`.

    Identity and repeated generators are dropped.  `maps` and `len`
    close the full list from the generators on first use."""

    __slots__ = ("group", "gens", "origin", "_maps")

    def __init__(self, group: FiniteGroup, gens, origin: str):
        self.group = group
        self.gens = tuple({a.map: a for a in gens if not a.is_identity()}.values())
        self.origin = origin
        self._maps = None

    @property
    def maps(self) -> list[Automorphism]:
        """Every element of the group, sorted by map: the `orbit` of the
        identity map under right composition with the generators."""
        if self._maps is None:
            # a * s maps x to s.map[a.map[x]]
            steps = [lambda a, s=s.map.__getitem__: tuple(map(s, a)) for s in self.gens]
            maps = orbit(tuple(range(self.group.order)), steps)
            self._maps = [Automorphism(m) for m in sorted(maps)]
        return self._maps

    def __len__(self):
        return len(self.maps)

    def mask_orbit(self, mask: int) -> set[int]:
        """Bitsets of the orbit of one bitset, one `orbit` walk over the
        generators; orbits on subgroup ids are `SubgroupLattice.orbits`."""
        return set(orbit(mask, [a.apply_mask for a in self.gens]))

    def __repr__(self):
        return f"AutomorphismGroup({self.origin}, gens={len(self.gens)})"


def trivial_automorphisms(G: FiniteGroup) -> AutomorphismGroup:
    return AutomorphismGroup(G, (), "trivial")


def inner_automorphisms(G: FiniteGroup, K: Subgroup | None = None) -> AutomorphismGroup:
    """Conjugation by the elements of K, held as the conjugations by K's
    generators; for all of G (K is None), G's kept conjugation maps."""
    if K is None:
        return AutomorphismGroup(G, [Automorphism(m) for _, m in G.conjugations], "inner")
    origin = "inner" if K.order == G.order else f"inner-by-{K.order}"
    return AutomorphismGroup(G, [Automorphism(G.conjugation_map(k)) for k in K.gens], origin)


def close_automorphisms(G: FiniteGroup, seeds) -> AutomorphismGroup:
    """The group of automorphisms generated by the seeds."""
    return AutomorphismGroup(G, seeds, "explicit-generated")


def _extend_images(G: FiniteGroup, gens, images) -> dict[int, int]:
    """The map on <gens> that sends each generator to its image.

    Raises NotAHomomorphism when two words for one element get different
    images and NotBijective as soon as two elements share an image."""
    mul = G.mul
    e = G.identity
    known = {e: e}
    values = {e}
    queue = [e]
    while queue:
        x = queue.pop()
        fx = known[x]
        for g, h in zip(gens, images):
            y = mul(x, g)
            z = mul(fx, h)
            fy = known.get(y)
            if fy is None:
                if z in values:
                    raise NotBijective("extension is not injective")
                known[y] = z
                values.add(z)
                queue.append(y)
            elif fy != z:
                raise NotAHomomorphism("generator images are inconsistent")
    return known


def automorphism_from_images(G: FiniteGroup, gens, images) -> Automorphism:
    """Extend generator images to the unique automorphism, if there is one.

    `gens` must generate G.  Raises NotAHomomorphism when the extension is
    inconsistent and NotBijective when the extension is not injective.
    """
    gens = list(gens)
    images = list(images)
    if len(gens) != len(images):
        raise ValueError("generator and image lists differ in length")
    known = _extend_images(G, gens, images)
    n = G.order
    if len(known) != n:
        raise ValueError("the given elements do not generate the group")
    return Automorphism(tuple(known[i] for i in range(n)))


def full_automorphism_group(G: FiniteGroup) -> AutomorphismGroup:
    """Generators of Aut(G), found level by level down a stabilizer chain,
    for |G| up to FULL_AUT_DEFAULT_BOUND, read when called (BoundExceeded
    past it).

    With gens = g_0, ..., g_{r-1} generating G, level k looks for maps
    that fix gens[:k].  For each image c of g_k of the same order that is
    not yet in the orbit of g_k under the maps kept so far, a depth-first
    search over the images of the later generators keeps the first such
    automorphism sending g_k to c, if there is one.  Levels run from the
    last generator to the first, and a map kept at level j fixes gens[:j];
    so by orbit-stabilizer, once level k is done the kept maps generate
    the pointwise stabilizer of gens[:k], and after level 0 all of Aut(G).
    """
    if G.order > FULL_AUT_DEFAULT_BOUND:
        raise BoundExceeded(f"|G| = {G.order} exceeds the full-Aut bound "
                            f"{FULL_AUT_DEFAULT_BOUND}")
    if G.order == 1:
        return trivial_automorphisms(G)
    gens = find_witness(G, G.full_mask())
    orders = G.element_orders
    candidates = [[x for x in range(G.order) if orders[x] == orders[g]] for g in gens]

    def first_extension(images):
        # an automorphism whose generator images begin with `images`, or None
        k = len(images)
        try:
            known = _extend_images(G, gens[:k], images)
        except (NotAHomomorphism, NotBijective):
            return None
        if k == len(gens):
            return Automorphism(known[i] for i in range(G.order))
        for c in candidates[k]:
            a = first_extension(images + (c,))
            if a is not None:
                return a
        return None

    kept = []
    for k in reversed(range(len(gens))):
        met = {gens[k]}     # the orbit of g_k under the kept maps
        for c in candidates[k]:
            if c not in met:
                a = first_extension(gens[:k] + (c,))
                if a is not None:
                    kept.append(a)
                    met = set(orbit(gens[k], [b.map.__getitem__ for b in kept]))
    return AutomorphismGroup(G, kept, "full-aut")


def induced_quotient_action(A: AutomorphismGroup, N: Subgroup,
                            quotient: FiniteGroup, projection: list[int]) -> AutomorphismGroup:
    """The automorphisms of G/N induced by A (N must be A-invariant, which
    holds exactly when every generator of A fixes N).
    No engine caller: exported API for the quotient identity mu_A(HN, G)."""
    for a in A.gens:
        if a.apply_mask(N.mask) != N.mask:
            raise NotInvariant("the normal subgroup is moved by the action")
    # one preimage per quotient element
    pre = [-1] * quotient.order
    for g, q in enumerate(projection):
        if pre[q] < 0:
            pre[q] = g
    gens = [Automorphism(tuple(projection[a.map[pre[q]]]
                               for q in range(quotient.order)))
            for a in A.gens]
    return AutomorphismGroup(quotient, gens, "induced")
