"""Seeded random permutation groups against the engine's own laws.

Each case draws 1-3 permutations of degree at most 6 from
`random.Random(seed)`, so the same groups come back on every run.  The
draws cover trivial, cyclic, solvable and nonsolvable groups up to S_6.
"""

import random

import pytest

from helpers import brute_center_mask, closure_mask
from moebius import counting
from moebius.automorphisms import trivial_automorphisms
from moebius.classposet import build_class_poset, conjugation_poset
from moebius.groups import generate_group
from moebius.lattice import enumerate_subgroups, mu_column
from moebius.perm import Permutation
from moebius.verify import independent_small_lattice

SEEDS = range(50)

# the join check closes one subgroup per class and cyclic subgroup
JOIN_CHECK_MAX_ORDER = 120


def draw(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 6)
    perms = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        rng.shuffle(images)
        perms.append(Permutation(images))
    return generate_group(perms)


def test_draws_reach_nonsolvable_groups():
    orders = {draw(seed).order for seed in SEEDS}
    assert {1, 60, 120, 360, 720} <= orders


@pytest.mark.parametrize("seed", SEEDS)
def test_random_group_laws(seed):
    G = draw(seed)
    lat = enumerate_subgroups(G)
    masks = {s.mask for s in lat.subgroups}
    if G.order <= 24:
        assert masks == independent_small_lattice(G)
    if G.order <= JOIN_CHECK_MAX_ORDER:
        # closed under conjugation (the classes) and under <H, <x>> for
        # each class representative H and cyclic subgroup <x>: every
        # subgroup is reached from 1 that way
        cyclic = {}
        for x in range(G.order):
            cyclic.setdefault(closure_mask(G, [x]), x)
        for r in lat.class_representatives():
            h = lat.subgroups[r].mask
            gens = list(lat.subgroups[r].gens)
            for c, x in cyclic.items():
                if c & ~h:
                    assert closure_mask(G, gens + [x]) in masks, (r, x)
    assert G.center_mask == brute_center_mask(G)
    if G.order > 1:
        assert sum(lat.mu_top) == 0
    assert counting.phi_hall(lat, 2) == counting.phi_via_classes(conjugation_poset(lat), 2)
    # A = 1: one sweep over the rows of single subgroups, against the
    # lattice column swept over conjugacy classes
    trivial = build_class_poset(lat, trivial_automorphisms(G))
    assert mu_column(trivial.rows(), [trivial.top]) == lat.mu_top
