"""Full subgroup lattice enumeration and lattice-theoretic primitives.

Enumeration is Neubueser's cyclic extension over conjugacy classes.
Every subgroup is generated by zuppos, the cyclic subgroups of
prime-power order, so it is reached from 1 by joining one zuppo at a
time.  Only one representative H per class is extended: H is joined
with one zuppo from each N_G(H)-orbit of the zuppos outside H, and every
new subgroup enters with its whole conjugacy orbit, deduplicated by
bitset.  The small-order test oracle re-derives the same lattice
independently.
"""

from __future__ import annotations

from math import gcd

from .errors import BudgetExceeded, NotNormal
from .groups import (FiniteGroup, Subgroup, bits, conjugate_mask, extend_closure,
                     is_normal_mask, normalizer_of)

DEFAULT_SUBGROUP_BUDGET = 200000


class SubgroupLattice:
    """All subgroups of a group, ordered by (order, bitset).

    Subgroup ids index the `subgroups` list.  Inclusion structure, the
    Moebius column at the top, normalizers and per-subgroup counting data
    are computed lazily and cached; the lattice itself is immutable.
    """

    def __init__(self, group: FiniteGroup, subgroups: list[Subgroup]):
        self.group = group
        self.subgroups = subgroups
        self.index = {s.mask: i for i, s in enumerate(subgroups)}
        self.by_order: dict[int, list[int]] = {}
        for i, s in enumerate(subgroups):
            self.by_order.setdefault(s.order, []).append(i)
        self.trivial_id = self.index[1 << group.identity]
        self.top_id = self.index[group.full_mask()]
        self._up = None
        self._down = None
        self._maximals = None
        self._mu_top = None
        self._normalizer = {}
        self._conj_orbit = {}
        self._phi_exact: dict[int, list[int]] = {}
        self._gamma_exact: dict[int, list[int]] = {}

    def __len__(self):
        return len(self.subgroups)

    def subgroup_id(self, sub: Subgroup) -> int:
        return self.index[sub.mask]

    def id_for_mask(self, mask: int) -> int:
        return self.index[mask]

    def witness(self, i: int) -> tuple[int, ...]:
        """Generator witness for subgroup i, recomputed if absent."""
        s = self.subgroups[i]
        if s.gens is None:
            s = Subgroup(s.mask, gens=find_witness(self.group, s.mask))
            self.subgroups[i] = s
        return s.gens

    # -- inclusion structure --------------------------------------------

    @property
    def up(self) -> list[list[int]]:
        """up[i] = ids of proper supergroups of i, ascending."""
        if self._up is None:
            self._compute_relation()
        return self._up

    @property
    def down(self) -> list[list[int]]:
        """down[i] = ids of proper subgroups of i, ascending."""
        if self._down is None:
            self._compute_relation()
        return self._down

    def _compute_relation(self):
        subs = self.subgroups
        n = len(subs)
        up = [[] for _ in range(n)]
        down = [[] for _ in range(n)]
        orders = sorted(self.by_order)
        for oj in orders:
            for j in self.by_order[oj]:
                mj = subs[j].mask
                dj = down[j]
                for oi in orders:
                    if oi >= oj:
                        break
                    if oj % oi:
                        continue
                    for i in self.by_order[oi]:
                        if subs[i].mask & ~mj == 0:
                            up[i].append(j)
                            dj.append(i)
        self._up = up
        self._down = down

    def leq(self, i: int, j: int) -> bool:
        return self.subgroups[i].mask & ~self.subgroups[j].mask == 0

    @property
    def maximals(self) -> list[int]:
        if self._maximals is None:
            top = self.top_id
            self._maximals = [i for i in range(len(self.subgroups))
                              if self.up[i] == [top]]
        return self._maximals

    # -- Moebius column ---------------------------------------------------

    @property
    def mu_top(self) -> list[int]:
        """mu(H, G) for every subgroup id H, on the full lattice."""
        if self._mu_top is None:
            n = len(self.subgroups)
            reps = self.class_representatives()
            if self._up is None and 4 * len(reps) <= n:
                self._mu_top = self._mu_top_by_classes(reps)
            else:
                mu = [0] * n
                mu[self.top_id] = 1
                up = self.up
                # descending lattice order: everything above is already done
                for i in range(n - 2, -1, -1):
                    mu[i] = -sum(mu[j] for j in up[i])
                self._mu_top = mu
        return self._mu_top

    def class_representatives(self) -> list[int]:
        """One subgroup id per conjugacy class (the smallest in each orbit)."""
        reps = []
        for i in range(len(self.subgroups)):
            orbit = self.conjugacy_orbit(i)
            if orbit[0] == i:
                reps.append(i)
        return reps

    def _mu_top_by_classes(self, reps: list[int]) -> list[int]:
        """The Moebius column via class representatives: mu is constant on
        conjugacy classes, so one superset scan per class suffices."""
        subs = self.subgroups
        mu_rep: dict[int, int] = {}
        orders = sorted(self.by_order)
        for i in sorted(reps, key=lambda i: -subs[i].order):
            if i == self.top_id:
                mu_rep[i] = 1
                continue
            mask = subs[i].mask
            o = subs[i].order
            total = 0
            for oj in orders:
                if oj <= o or oj % o:
                    continue
                for j in self.by_order[oj]:
                    if mask & ~subs[j].mask == 0:
                        total += mu_rep[self.conjugacy_orbit(j)[0]]
            mu_rep[i] = -total
        return [mu_rep[self.conjugacy_orbit(i)[0]]
                for i in range(len(subs))]

    # -- classical primitives ---------------------------------------------

    def normalizer_mask(self, i: int) -> int:
        cached = self._normalizer.get(i)
        if cached is not None:
            return cached
        out = normalizer_of(self.group, self.subgroups[i].mask, self.witness(i))
        self._normalizer[i] = out
        return out

    def normalizer(self, sub: Subgroup) -> Subgroup:
        i = self.index[sub.mask]
        mask = self.normalizer_mask(i)
        return self.subgroups[self.index[mask]]

    def conjugacy_orbit(self, i: int) -> tuple[int, ...]:
        """Ids of all conjugates of subgroup i (BFS over group generators)."""
        cached = self._conj_orbit.get(i)
        if cached is not None:
            return cached
        G = self.group
        seen = {self.subgroups[i].mask}
        queue = [self.subgroups[i].mask]
        while queue:
            m = queue.pop()
            for g in G.gens:
                c = conjugate_mask(G, m, g)
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        orbit = tuple(sorted(self.index[m] for m in seen))
        for j in orbit:
            self._conj_orbit[j] = orbit
        return orbit

    def sigma(self, i: int) -> int:
        """Number of subgroups of subgroup i (including 1 and itself)."""
        return len(self.down[i]) + 1

    def intersect(self, h: Subgroup, k: Subgroup) -> Subgroup:
        return self.subgroups[self.index[h.mask & k.mask]]

    def join(self, h: Subgroup, k: Subgroup) -> Subgroup:
        mask = h.mask
        i = self.index[h.mask]
        gens = list(self.witness(i))
        for x in self.witness(self.index[k.mask]):
            if not (mask >> x) & 1:
                mask = extend_closure(self.group, mask, list(bits(mask)), gens, x)
                gens.append(x)
        return self.subgroups[self.index[mask]]

    def closure_in_maximals(self, h: Subgroup) -> Subgroup:
        """Intersection of the maximal subgroups containing h (G if none)."""
        i = self.index[h.mask]
        if i == self.top_id:
            return self.subgroups[self.top_id]
        mask = self.group.full_mask()
        ups = set(self.up[i])
        for m in self.maximals:
            if m == i or m in ups:
                mask &= self.subgroups[m].mask
        return self.subgroups[self.index[mask]]

    def frattini(self) -> Subgroup:
        mask = self.group.full_mask()
        for m in self.maximals:
            mask &= self.subgroups[m].mask
        return self.subgroups[self.index[mask]]

    def complements(self, n_sub: Subgroup, h: Subgroup | None = None) -> list[Subgroup]:
        """All K with KN = G, K meet N = 1, and (optionally) H <= K."""
        G = self.group
        if not is_normal_mask(G, n_sub.mask):
            raise NotNormal("complements need a normal subgroup")
        triv = 1 << G.identity
        need = G.order
        h_mask = h.mask if h is not None else triv
        out = []
        for s in self.subgroups:
            if s.order * n_sub.order == need and s.mask & n_sub.mask == triv \
                    and h_mask & ~s.mask == 0:
                out.append(s)
        return out

    # -- exact generation counts (shared by the counting module) ----------

    def phi_exact(self, t: int) -> list[int]:
        """phi_exact[K] = number of t-tuples of elements generating exactly K."""
        cached = self._phi_exact.get(t)
        if cached is not None:
            return cached
        down = self.down
        vals = [0] * len(self.subgroups)
        for i, s in enumerate(self.subgroups):
            vals[i] = s.order ** t - sum(vals[j] for j in down[i])
        self._phi_exact[t] = vals
        return vals

    def gamma_exact(self, t: int) -> list[int]:
        """gamma_exact[K] = number of t-tuples of subgroups joining exactly to K."""
        cached = self._gamma_exact.get(t)
        if cached is not None:
            return cached
        down = self.down
        vals = [0] * len(self.subgroups)
        for i in range(len(self.subgroups)):
            vals[i] = self.sigma(i) ** t - sum(vals[j] for j in down[i])
        self._gamma_exact[t] = vals
        return vals


def find_witness(G: FiniteGroup, mask: int) -> tuple[int, ...]:
    """A short generator list for the subgroup with the given bitset."""
    e = G.identity
    elems = [x for x in bits(mask) if x != e]
    if not elems:
        return ()
    orders = G.element_orders
    elems.sort(key=lambda x: (-orders[x], x))
    gens = []
    cur = 1 << e
    for x in elems:
        if (cur >> x) & 1:
            continue
        cur = extend_closure(G, cur, list(bits(cur)), gens, x)
        gens.append(x)
        if cur == mask:
            break
    if cur != mask:
        raise ValueError("mask is not closed under multiplication")
    return tuple(gens)


def _zuppos(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """(zuppo_of, zgens): zuppo_of[x] is the id of the cyclic prime-power
    subgroup that x generates (negative when x is 1 or its order is not a
    prime power), and zgens[id] is one generator of that zuppo."""
    mt = G.table
    n = G.order
    e = G.identity
    zuppo_of = [-1] * n     # -1 until the powers of x are walked
    zuppo_of[e] = -2
    zgens: list[int] = []
    for x in range(n):
        if zuppo_of[x] != -1:
            continue
        powers = [x]
        y = mt[x * n + x]
        while y != e:
            powers.append(y)
            y = mt[y * n + x]
        k = len(powers) + 1
        z = -2
        if _is_prime_power(k):
            z = len(zgens)
            zgens.append(x)
        # the generators of <x> are its powers prime to its order
        for j, y in enumerate(powers, 1):
            if gcd(j, k) == 1:
                zuppo_of[y] = z
    return zuppo_of, zgens


def _is_prime_power(n: int) -> bool:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def enumerate_subgroups(G: FiniteGroup,
                        budget: int = DEFAULT_SUBGROUP_BUDGET) -> SubgroupLattice:
    """Enumerate every subgroup of G by cyclic extension over classes.

    Every subgroup is a chain of joins with zuppos starting from 1, and
    a join of a conjugate H^g is the conjugate of a join of H, so it is
    enough to join class representatives with zuppos and to insert the
    whole conjugacy orbit of each new subgroup.  For n in N_G(H),
    <H, z^n> = <H, z>^n, so one zuppo per N_G(H)-orbit suffices."""
    mt = G.table
    n = G.order
    inv = G.inverse
    center = G.center_mask
    # conjugation by a central element is the identity
    movers = [g for g in G.gens if not (center >> g) & 1]
    full = G.full_mask()
    triv = 1 << G.identity
    seen: dict[int, tuple[int, ...]] = {}

    def insert(mask: int, witness: tuple[int, ...]):
        seen[mask] = witness
        if len(seen) > budget:
            raise BudgetExceeded(len(seen), budget, "subgroup enumeration")

    def expand_orbit(mask: int, witness: tuple[int, ...]):
        """Insert the whole conjugacy orbit of a new subgroup."""
        insert(mask, witness)
        queue = [(mask, witness)]
        while queue:
            m, w = queue.pop()
            for g in movers:
                gi = inv[g] * n
                c = 0
                for x in bits(m):
                    c |= 1 << mt[mt[gi + x] * n + g]
                if c not in seen:
                    cw = tuple(mt[mt[gi + x] * n + g] for x in w)
                    insert(c, cw)
                    queue.append((c, cw))

    zuppo_of, zgens = _zuppos(G)
    expand_orbit(triv, ())
    worklist = [triv]
    while worklist:
        h = worklist.pop()
        h_gens = seen[h]
        h_elems = list(bits(h))
        norm = normalizer_of(G, h, h_gens)
        if norm == full:
            n_gens = movers
        else:
            n_gens = [g for g in find_witness(G, norm) if not (center >> g) & 1]
        done = bytearray(len(zgens))
        for z, zx in enumerate(zgens):
            if done[z] or (h >> zx) & 1:
                continue
            # walk the N_G(H)-orbit of this zuppo; only its first member is joined
            done[z] = 1
            stack = [zx]
            while stack:
                x = stack.pop()
                for g in n_gens:
                    y = mt[mt[inv[g] * n + x] * n + g]
                    k = zuppo_of[y]
                    if not done[k]:
                        done[k] = 1
                        stack.append(y)
            t = extend_closure(G, h, h_elems, h_gens, zx)
            if t not in seen:
                expand_orbit(t, h_gens + (zx,))
                worklist.append(t)
    subs = [Subgroup(m, gens=g) for m, g in seen.items()]
    subs.sort(key=lambda s: (s.order, s.mask))
    return SubgroupLattice(G, subs)
