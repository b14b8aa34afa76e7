"""Bitboard validity: the vertex-to-bit layout, the simple-connectivity kernel
against the breadth-first reference, and the per-district masks cached by
Partition."""

import random

import pytest

from trirecom import build_region
from trirecom.lattice import DIRECTIONS
from trirecom.partition import is_connected, is_simply_connected
from trirecom.partition import _simply_connected_mask

from support import bfs_is_simply_connected, random_omega_state


def test_lattice_steps_are_constant_shifts():
    for n in (3, 5, 9):
        region = build_region(n)
        w = region.width
        shifts = {(0, -1): -1, (1, 0): w, (1, 1): w + 1}
        shifts.update({(-a, -b): -s for (a, b), s in list(shifts.items())})
        assert set(shifts) == set(DIRECTIONS)
        full = region.mask_of(region.vertices)
        assert full.bit_count() == region.num_vertices
        for v in region.vertices:
            bit = region.bit_of[v]
            for d, slot in zip(DIRECTIONS, region.neighbors_cyclic(v)):
                s = shifts[d]
                moved = bit << s if s > 0 else bit >> -s
                # an off-region step lands on a padding bit, never on a vertex
                expected = region.bit_of[slot] if slot is not None else 0
                assert moved & full == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_matches_reference_on_every_subset(n):
    region = build_region(n)
    verts = region.vertices
    valid = 0
    for code in range(1 << len(verts)):
        vset = [v for i, v in enumerate(verts) if code >> i & 1]
        expected = bfs_is_simply_connected(region, vset)
        assert _simply_connected_mask(region.mask_of(vset), region.width) == expected
        assert is_simply_connected(region, vset) == expected
        valid += expected
    assert 0 < valid < 1 << len(verts)


def _grown_set(region, rng, size):
    """A connected set grown from a random vertex by random frontier picks."""
    verts = region.vertices
    start = verts[rng.randrange(len(verts))]
    current = {start}
    frontier = list(region.neighbors(start))
    while len(current) < size and frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        u = frontier.pop()
        if u not in current:
            current.add(u)
            frontier.extend(region.neighbors(u))
    return current


def _punched(region, rng, vset):
    """vset with up to three vertices removed, half of them ones surrounded by
    the set, so that both holes and splits are common."""
    vset = set(vset)
    for _ in range(rng.randrange(4)):
        inner = [
            v
            for v in vset
            if v not in region.boundary
            and all(u in vset for u in region.neighbors(v))
        ]
        pool = inner if inner and rng.random() < 0.5 else sorted(vset)
        if len(pool) > 1:
            vset.discard(pool[rng.randrange(len(pool))])
    return vset


@pytest.mark.parametrize("n", [6, 8, 16, 24])
def test_kernel_matches_reference_on_grown_sets_with_holes(n):
    region = build_region(n)
    rng = random.Random(7000 + n)
    outcomes = {"simple": 0, "holed": 0, "split": 0}
    for _ in range(3000):
        size = rng.randrange(1, region.num_vertices + 1)
        vset = _punched(region, rng, _grown_set(region, rng, size))
        expected = bfs_is_simply_connected(region, vset)
        assert is_simply_connected(region, vset) == expected
        if expected:
            outcomes["simple"] += 1
        elif is_connected(region, vset):
            # connected but enclosing a complement vertex
            outcomes["holed"] += 1
        else:
            outcomes["split"] += 1
    assert min(outcomes.values()) > 50, outcomes


def _check_masks(p):
    region = p.region
    masks = p.masks()
    for d in (1, 2, 3):
        assert masks[d - 1] == region.mask_of(p.district_set(d))
    assert masks[0] | masks[1] | masks[2] == region.mask_of(region.vertices)
    assert p.sizes() == tuple(p.labels.count(d) for d in (1, 2, 3))


@pytest.mark.parametrize("n, targets", [(5, (5, 5, 5)), (8, (12, 12, 12))])
def test_partition_masks_and_sizes_follow_the_labels(n, targets):
    region = build_region(n)
    rng = random.Random(31 + n)
    for _ in range(20):
        p = random_omega_state(region, targets, rng)
        _check_masks(p)
        for q in (
            p.relabeled({1: 3, 2: 1, 3: 2}),
            p.reflected(),
            p.rotated(),
            p.rotated(2),
        ):
            _check_masks(q)
        moves = [
            (region.vertices[rng.randrange(region.num_vertices)], rng.randrange(1, 4))
            for _ in range(3)
        ]
        _check_masks(p.with_moves(moves))
