"""Bitboard validity: the vertex-to-bit layout, the region's masks, cached
frames and connected components, slot patterns, the simple-connectivity
kernel against the breadth-first reference, the per-district masks cached by
Partition and carried to derived partitions, and the route builder's
bitboard scans against their vertex-set references."""

import itertools
import random

import pytest

from trirecom import Partition, build_region
from trirecom.lattice import DIRECTIONS, ONE_ARC
from trirecom.partition import (
    _simply_connected_mask,
    case_dispatch,
    districts_adjacent,
)
from trirecom.pathfinder import _first_open_column, _removables

from support import (
    balanced_targets,
    bfs_is_simply_connected,
    boundary_vertices,
    case_dispatch_reference,
    columns_leq,
    component_of,
    connected_components,
    district_set,
    districts_adjacent_reference,
    first_open_column_reference,
    is_connected,
    is_simply_connected,
    random_interior_state,
    random_omega_state,
    removables_reference,
)


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


@pytest.mark.parametrize("n", [3, 5, 9])
def test_region_masks_and_frames_match_the_vertex_sets(n):
    region = build_region(n)
    mask_of = region.mask_of
    assert region.full_mask == mask_of(region.vertices)
    assert region.boundary_mask == mask_of(boundary_vertices(region))
    for i in range(n + 3):
        assert region.cols_leq_mask(i) == mask_of(columns_leq(region, i))
    assert region.vertices_of(region.full_mask) == sorted(
        region.vertices, key=lambda v: (v[0], v[1])
    )
    rng = random.Random(90 + n)
    for _ in range(100):
        vset = {v for v in region.vertices if rng.random() < 0.3}
        m = mask_of(vset)
        near = {u for v in vset for u in region.neighbors(v)}
        assert region.neighbors_mask(m) == mask_of(near)
        assert region.vertices_of(m) == sorted(vset)
    for reflect, turns in itertools.product((False, True), range(-1, 4)):
        source, image = region.frame(reflect, turns)
        assert region.frame(reflect, turns) is region.frame(reflect, turns % 3)

        def move(v):
            if reflect:
                v = region.reflect(v)
            for _ in range(turns % 3):
                v = region.rotate(v)
            return v

        for i, v in enumerate(region.vertices):
            assert region.vertices[image[i]] == move(v)
            assert source[image[i]] == i
        vset = {v for v in region.vertices if rng.random() < 0.5}
        assert region.map_mask(mask_of(vset), image) == mask_of(map(move, vset))


@pytest.mark.parametrize("n", range(3, 13))
def test_region_components_equal_the_breadth_first_reference(n):
    region = build_region(n)
    rng = random.Random(500 + n)
    masks = [0, region.full_mask]
    for _ in range(60):
        density = rng.random()
        masks.append(
            region.mask_of(v for v in region.vertices if rng.random() < density)
        )
    split = 0
    for m in masks:
        vset = frozenset(region.vertices_of(m))
        comps = list(region.components(m))
        expected = connected_components(region, vset)
        assert sorted(comps) == sorted(region.mask_of(c) for c in expected)
        # lowest bit first: ascending least ordering index
        lows = [c & -c for c in comps]
        assert lows == sorted(lows)
        split += len(comps) > 1
        if m:
            assert is_connected(region, vset) == (len(comps) == 1)
        for c in expected:
            v = sorted(c)[rng.randrange(len(c))]
            assert region.component(m, region.bit_of[v]) == region.mask_of(
                component_of(region, vset, v)
            )
    assert list(region.components(0)) == []
    assert list(region.components(region.full_mask)) == [region.full_mask]
    # masks of several components occur at every side
    assert split > 0


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
            if not region.is_boundary(v)
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
        assert masks[d - 1] == region.mask_of(district_set(p, d))
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
            p.permuted(region.frame(True, 0)[0]),
            p.permuted(region.frame(False, 1)[0]),
            p.permuted(region.frame(False, 2)[0]),
        ):
            _check_masks(q)
        moves = [
            (region.vertices[rng.randrange(region.num_vertices)], rng.randrange(1, 4))
            for _ in range(3)
        ]
        _check_masks(p.with_moves(moves))


@pytest.mark.parametrize("n, targets", [(5, (5, 5, 5)), (16, (45, 45, 46))])
def test_carried_masks_equal_rebuilt_ones(n, targets):
    region = build_region(n)
    rng = random.Random(77 + n)
    verts = region.vertices
    for _ in range(20):
        p = random_omega_state(region, targets, rng)
        p.masks()
        # a chain of derived partitions, each from a parent with cached masks
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
            assert q._masks is not None
            rebuilt = Partition(region, q.targets, q.labels)
            assert q.masks() == rebuilt.masks()
            assert q.sizes() == rebuilt.sizes()
            p = q


# -- the route builder's scans against their vertex-set references ---------------


def _compare_scans(p):
    """Check the bitboard scans on p against the vertex-set references;
    return the dispatch outcome and the number of removable vertices beyond
    each column, summed over the columns."""
    region = p.region
    sets = [district_set(p, d) for d in (1, 2, 3)]
    m1 = p.masks()[0]
    # the scan reads each candidate's own district, so any set is a candidate
    # set; the route builder passes district 1 beyond a column, or all of it
    for cands in (*sets, region.vertex_set):
        got = _removables(p, region.mask_of(cands))
        assert got == removables_reference(p, cands)
    found = 0
    for i in range(region.n + 1):
        expected = removables_reference(p, sets[0] - columns_leq(region, i))
        assert _removables(p, m1 & ~region.cols_leq_mask(i)) == expected
        found += len(expected)
    for d1, d2 in itertools.permutations((1, 2, 3), 2):
        assert districts_adjacent(p, d1, d2) == districts_adjacent_reference(
            p, d1, d2
        )
    # dispatch expects the anchor corner inside district 1
    d1 = p.district((1, 1))
    d2, d3 = sorted({1, 2, 3} - {d1})
    q = p.relabeled({d1: 1, d2: 2, d3: 3})
    case = case_dispatch_reference(q)
    if case is None:
        with pytest.raises(AssertionError):
            case_dispatch(q)
    else:
        assert case_dispatch(q) == case
    assert _first_open_column(q) == first_open_column_reference(q)
    assert _first_open_column(p) == first_open_column_reference(p)
    return case, found


def test_builder_scans_equal_the_references_on_the_n5_window(omega5):
    assert len(omega5) == 3306
    cases = set()
    found = 0
    for p in omega5:
        case, removable = _compare_scans(p)
        cases.add(case)
        found += removable
    # no district of 4 or more vertices fits in the 3 interior vertices of
    # the n=5 region, so Cases B and C cannot occur there
    assert cases == {"A", "D"}
    assert found > 0


@pytest.mark.parametrize("n, states", [(6, 40), (16, 16), (24, 8), (32, 5)])
def test_builder_scans_equal_the_references_on_walk_states(n, states):
    region = build_region(n)
    targets = balanced_targets(n)
    rng = random.Random(8200 + n)
    found = 0
    for k in range(states):
        # walks of growing length, so shapes range from near-block to ragged
        p = random_omega_state(region, targets, rng, attempts=(k + 1) * 40 * n)
        found += _compare_scans(p)[1]
    assert found > 0


@pytest.mark.parametrize("n", [8, 12])
def test_builder_scans_equal_the_references_on_interior_states(n):
    # a district off the boundary: Cases B and C of the dispatch
    region = build_region(n)
    rng = random.Random(8300 + n)
    cases = {_compare_scans(random_interior_state(region, rng))[0] for _ in range(15)}
    assert {"B", "C"} <= cases
