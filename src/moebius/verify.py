"""Per-group identity battery behind the `verify` subcommand.

Runs every structural identity the engine promises on one group, for a
family of acting automorphism groups, and reports machine-readable
pass/fail entries.  The acceptance test suite runs the same identities
over whole families of groups.
"""

from __future__ import annotations

from . import counting
from .automorphisms import (FULL_AUT_DEFAULT_BOUND, full_automorphism_group,
                            inner_automorphisms, trivial_automorphisms)
from .classposet import (ClassPoset, build_class_poset, crapo_check_all,
                         maximal_closure_map, minimal_normal_subgroup_ids,
                         nonzero_implies_closed)
from .errors import ImageNotInLattice, LiftNotGenerating
from .groups import (FiniteGroup, bits, closure, commutator_subgroup, is_solvable,
                     product_mask)
from .lattice import SubgroupLattice
from .mulambda import MuLambdaAnalyzer


def automorphism_choices(G: FiniteGroup,
                         lattice: SubgroupLattice) -> list[tuple[str, ClassPoset]]:
    """The acting subgroups exercised by the battery, as (label, class
    poset) pairs: trivial, inner (the lattice's own conjugation poset),
    inner-by-K for every K containing G', and (small groups) full Aut.
    Equal groups are listed once, under the first label: each candidate
    has an exact key, and a class poset is built only for a new key.

    Conjugation by the elements of K is the image of K in Inn(G) =
    G/Z(G), which is also the image of KZ(G), and two subgroups containing
    Z(G) have equal images only when they are equal.  So two inner
    actions are equal exactly when their KZ(G) are, and the bitset of
    KZ(G) is the key (Z(G) for A=1, G for A=inn).  Full Aut contains
    Inn(G), so it equals an inner action exactly when it is Inn(G), that
    is, when every generator is a conjugation; it is then keyed by G, and
    otherwise by a key no inner action has.  No list of maps is closed.
    Everything is read off the lattice: Z(G) with its witness, and the K
    holding G', the bits of G''s upeq row in ascending id order."""
    choices: list[tuple[str, ClassPoset]] = []
    keys: set = set()

    def add(label: str, key, action):
        if key not in keys:
            keys.add(key)
            choices.append((label, build_class_poset(lattice, action())))

    center = lattice.subgroups[lattice.index[G.center_mask]]
    add("A=1", center.mask, lambda: trivial_automorphisms(G))
    add("A=inn", G.full_mask(), lambda: inner_automorphisms(G))
    for i in bits(lattice.upeq([lattice.index[commutator_subgroup(G).mask]])[0]):
        s = lattice.subgroups[i]
        add(f"A=inn:order={s.order}#{i - lattice.by_order[s.order][0]}",
            closure(G, s.gens, center.mask, center.gens)[0],
            lambda: inner_automorphisms(G, lattice.subgroups[i]))
    if G.order <= FULL_AUT_DEFAULT_BOUND:
        full = full_automorphism_group(G)
        conjugations = {tuple(G.conjugation_map(g)) for g in range(G.order)}
        add("A=aut", G.full_mask() if all(a.map in conjugations for a in full.gens)
            else "aut", lambda: full)
    return choices


def poset_axiom_violations(poset: ClassPoset) -> list[str]:
    """Reflexivity, antisymmetry and transitivity of the class order, read
    as bits of the class rows (row c holds the classes at or above c)."""
    out = []
    rows = list(poset.rows())
    for c, row in enumerate(rows):
        if not (row >> c) & 1:
            out.append(f"reflexivity broken at {c}")
        for d in bits(row & ~(1 << c)):
            if (rows[d] >> c) & 1:
                out.append(f"antisymmetry broken at ({c},{d})")
            for e in bits(rows[d] & ~rows[c]):
                out.append(f"transitivity broken at ({c},{d},{e})")
    return out


def mobius_equation_violations(poset: ClassPoset) -> list[int]:
    """Classes x below the top where the top column breaks its defining
    equation against the order: mu(x, top) + sum of mu(z, top) over the
    classes z above x, the other bits of x's class row, is 0."""
    mu = poset.mu_top
    top = poset.top
    return [x for x, row in enumerate(poset.rows())
            if x != top and mu[x] + sum(mu[z] for z in bits(row & ~(1 << x))) != 0]


def independent_small_lattice(G: FiniteGroup) -> set[int]:
    """Oracle lattice for |G| <= 24: close all <=2-generated subgroups,
    then close the set under pairwise joins by brute product closure."""
    masks = {1 << G.identity}
    n = G.order
    for x in range(n):
        for y in range(x, n):
            masks.add(_brute_closure(G, (x, y)))
    changed = True
    while changed:
        changed = False
        for a in list(masks):
            for b in list(masks):
                if a | b not in masks:
                    j = _brute_closure_mask(G, a | b)
                    if j not in masks:
                        masks.add(j)
                        changed = True
    return masks


def _brute_closure(G, seed):
    mask = 1 << G.identity
    for s in seed:
        mask |= 1 << s
    return _brute_closure_mask(G, mask)


def _brute_closure_mask(G, mask):
    while True:
        new = mask | product_mask(G, mask, mask)
        if new == mask:
            return mask
        mask = new


def completeness_gaps(G: FiniteGroup, lattice: SubgroupLattice) -> list[str]:
    """Why the lattice may lack a subgroup of G; empty when it cannot.

    Every subgroup is reached from 1 by joining one zuppo (cyclic subgroup
    of prime-power order) at a time, and <H^g, z> = <H, z^(g^-1)>^g.  So a
    lattice closed under G's conjugation maps that holds <H, z> for every
    class representative H and every zuppo z holds every subgroup.  The
    zuppos are read off G's element orders: one x of prime-power order for
    each cyclic subgroup <x>."""
    try:
        classes, _ = lattice.orbits([x_to_xg for _, x_to_xg in G.conjugations])
    except ImageNotInLattice:
        return ["not closed under conjugation"]
    zuppos: dict[int, int] = {}   # bitset of <x> -> x
    for x, k in enumerate(G.element_orders):
        p = next((d for d in range(2, k + 1) if k % d == 0), 0)    # k's least prime
        if p and pow(p, k.bit_length(), k) == 0:                   # k is a power of p
            zuppos.setdefault(closure(G, (x,))[0], x)
    gaps = []
    for r, _ in classes:
        mask, witness = lattice.subgroups[r].mask, lattice.subgroups[r].gens
        for z in zuppos.values():
            if not (mask >> z) & 1 and closure(G, (z,), mask, witness)[0] not in lattice.index:
                gaps.append(f"<{r}, {z}>")
    return gaps


def run_battery(G: FiniteGroup, t_max: int, lattice: SubgroupLattice,
                tuple_budget: int = counting.VERIFY_TUPLE_BUDGET) -> list[dict]:
    """All identity checks on one group, over the caller's lattice of G;
    returns [{name, ok, detail}, ...]."""
    counting._require_t_max(t_max)
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    n = G.order

    inv = G.inverse
    ok = all(inv[inv[x]] == x and G.mul(x, inv[x]) == G.identity for x in range(n))
    record("inverse-involution", ok)

    record("lagrange", all(n % s.order == 0 for s in lattice.subgroups))

    if n <= 24:
        oracle = independent_small_lattice(G)
        record("lattice-completeness-oracle",
               oracle == {s.mask for s in lattice.subgroups},
               f"{len(oracle)} subgroups")
    gaps = completeness_gaps(G, lattice)
    record("lattice-completeness-zuppos", not gaps, "; ".join(gaps[:3]))

    phis = {t: counting.phi_hall(lattice, t) for t in range(1, t_max + 1)}
    for t in range(1, t_max + 1):
        if not counting.tuples_exceed(n, t, tuple_budget):
            brute = counting.phi_bruteforce(G, t, budget=tuple_budget)
            record(f"phi-brute-t{t}", brute == phis[t],
                   f"{brute} vs {phis[t]}")

    sum_mu_sigma = counting.phi_star_hall(lattice, 1)
    record("sum-mu-sigma-is-1", sum_mu_sigma == 1, str(sum_mu_sigma))

    noncyclic = not G.is_cyclic()
    choices = automorphism_choices(G, lattice)
    for label, poset in choices:
        bad = poset_axiom_violations(poset)
        record(f"poset-axioms[{label}]", not bad, "; ".join(bad[:3]))
        bad = mobius_equation_violations(poset)
        record(f"mobius-equations[{label}]", not bad, str(bad[:5]))
        via = {t: counting.phi_via_classes(poset, t) for t in range(1, t_max + 1)}
        for t in range(1, t_max + 1):
            record(f"phi-classes-t{t}[{label}]", via[t] == phis[t],
                   f"{via[t]} vs {phis[t]}")
        if noncyclic:
            # the sum of mu_A(c) omega(c, 1) over the classes is the t = 1
            # class sum, phi(G, 1), which is 0 when G is not cyclic
            record(f"zero-sum[{label}]", via[1] == 0, str(via[1]))
        cl = maximal_closure_map(poset)
        record(f"crapo[{label}]", not crapo_check_all(poset, cl))
        record(f"nonzero-implies-closed[{label}]",
               not nonzero_implies_closed(poset, cl))

    an = MuLambdaAnalyzer(G, lattice)
    for n_id in minimal_normal_subgroup_ids(lattice)[:2]:
        n_sub = lattice.subgroups[n_id]
        t = min(t_max, 2)
        try:
            via = counting.phi_relative_via_classes(an.poset, n_sub, t)
        except LiftNotGenerating:
            continue
        direct = counting.phi_relative(lattice, n_sub, t)
        record(f"phi-relative-N{n_sub.order}-t{t}", via == direct,
               f"{via} vs {direct}")

    report = an.report()
    solvable = is_solvable(G)
    if solvable:
        record("mu-lambda-property[solvable]", report.passed,
               f"violations: {list(report.violations)}")
    else:
        record("mu-lambda-property", True,
               f"passed={report.passed} violations={list(report.violations)}")
    for t in range(1, t_max + 1):
        z = an.zero_sum_check(t)
        record(f"zero-sum-identity-consistency-t{t}", z.consistent)
        if report.passed:
            record(f"zero-sum-identity-t{t}", z.is_zero, str(z.full_sum))
    if report.passed:
        for t in range(1, t_max + 1):
            vec = an.beta_vector(t)
            total = sum(an.rows[c].lam * b for c, b in zip(vec.class_ids, vec.entries))
            record(f"beta-solves-equation-t{t}", total == 0, str(total))
    above_derived = lattice.upeq([lattice.index[an.derived.mask]])[0]
    betas_ok = True
    for t in range(1, min(t_max, 3) + 1):
        vec = an.beta_vector(t)
        for c, b in zip(vec.class_ids, vec.entries):
            contains_derived = above_derived >> an.poset.classes[c][0] & 1
            if b < 0 or (b == 0) != contains_derived:
                betas_ok = False
    record("beta-nonnegative-zero-iff-derived", betas_ok)

    if solvable:
        for label, poset in choices:
            if not label.startswith("A=inn:"):
                continue
            agrees = all(an.poset.mu_top[an.poset.class_of[i]]
                         == poset.mu_top[poset.class_of[i]]
                         for i in range(len(lattice.subgroups)))
            record(f"lambda-equals-mu[{label}]", agrees)

    return checks
