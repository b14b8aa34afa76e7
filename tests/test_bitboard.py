"""Bitboard validity: the vertex-to-bit layout, slot patterns, the
simple-connectivity kernel against the breadth-first reference, and the
per-district masks cached by Partition and carried to derived partitions."""

import random

import pytest

from trirecom import Partition, build_region
from trirecom.lattice import DIRECTIONS, ONE_ARC
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


def test_one_arc_table_counts_cyclic_runs():
    for pattern in range(64):
        slots = [pattern >> i & 1 for i in range(6)]
        # a run starts at each set slot whose predecessor is clear
        runs = sum(1 for i in range(6) if slots[i] and not slots[i - 1])
        assert ONE_ARC[pattern] == (runs <= 1)
    assert ONE_ARC[0] and ONE_ARC[63] and not ONE_ARC[0b010101]


def test_slot_pattern_reads_the_neighbor_slots():
    region = build_region(6)
    rng = random.Random(66)
    for _ in range(200):
        vset = {v for v in region.vertices if rng.random() < 0.5}
        m = region.mask_of(vset)
        for v in region.vertices:
            expected = sum(
                1 << i
                for i, u in enumerate(region.neighbors_cyclic(v))
                if u is not None and u in vset
            )
            assert region.slot_pattern(m, v) == expected


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


@pytest.mark.parametrize("n, targets", [(5, (5, 5, 5)), (16, (45, 45, 46))])
def test_carried_masks_and_districts_equal_rebuilt_ones(n, targets):
    region = build_region(n)
    rng = random.Random(77 + n)
    verts = region.vertices
    for _ in range(20):
        p = random_omega_state(region, targets, rng)
        p.masks()
        p.districts()
        # a chain of derived partitions, each from a parent with cached masks
        # and district sets
        for _ in range(10):
            if rng.random() < 0.3:
                perm = dict(zip((1, 2, 3), rng.sample((1, 2, 3), 3)))
                q = p.relabeled(perm)
            else:
                moves = [
                    (verts[rng.randrange(len(verts))], rng.randrange(1, 4))
                    for _ in range(rng.randrange(1, 4))
                ]
                q = p.with_moves(moves)
            # carried, not rebuilt on demand
            assert q._masks is not None and q._districts is not None
            rebuilt = Partition(region, q.targets, q.labels)
            assert q.masks() == rebuilt.masks()
            assert q.sizes() == rebuilt.sizes()
            assert q.districts() == rebuilt.districts()
            p = q
