"""Constructive building blocks: shrink-vertex search, deterministic paths,
cycle interiors, BFS-last orderings, cycle recombination, towers, and
unwinding."""

import random

import pytest

from trirecom import Partition, build_region, flip_valid, ground_state
from trirecom.lattice import ordering_index
from trirecom.toolkit import (
    NoShrinkVertex,
    StructuralError,
    _checked_flip,
    bfs_last_order,
    build_tower,
    cycle_recombine,
    execute_tower,
    find_shrink_vertex,
    path_within,
    unwind,
    vertices_enclosed,
)

from support import (
    boundary_vertices,
    district_set,
    is_connected,
    is_cut_vertex,
    is_exposed,
    random_connected_subset,
    random_omega_state,
    unclassified,
)


@pytest.fixture(scope="module")
def pool5():
    region = build_region(5)
    rng = random.Random(303)
    return [random_omega_state(region, (5, 5, 5), rng) for _ in range(80)]


# -- find_shrink_vertex ---------------------------------------------------------


def _shrink_reference(p, subset, prefer):
    full = unclassified(p)
    for v in sorted(subset, key=ordering_index):
        if not is_exposed(p, v) or is_cut_vertex(p, v):
            continue
        for to in prefer:
            if to != p.district(v) and flip_valid(full, v, to):
                return v, to
    return None


def test_find_shrink_vertex_matches_reference(pool5):
    found = 0
    for p in pool5[:30]:
        for d in (1, 2, 3):
            for prefer in ((1, 2, 3), (3, 2), (2,)):
                expected = _shrink_reference(p, district_set(p, d), prefer)
                if expected is None:
                    with pytest.raises(NoShrinkVertex):
                        find_shrink_vertex(p, p.masks()[d - 1], prefer)
                else:
                    got = find_shrink_vertex(p, p.masks()[d - 1], prefer)
                    assert got == expected
                    v, to = got
                    assert flip_valid(unclassified(p), v, to)
                    found += 1
    assert found > 50


def test_find_shrink_vertex_skips_unexposed():
    region = build_region(5)
    p = ground_state(region, (5, 5, 5), (1, 2, 3))
    unexposed = [
        v for v in district_set(p, 1) if not is_exposed(p, v)
    ]
    assert unexposed
    with pytest.raises(NoShrinkVertex):
        find_shrink_vertex(p, region.mask_of(unexposed), (2, 3))


# -- path_within -----------------------------------------------------------------


def _bfs_distance(region, vset, src, dst):
    from collections import deque

    dist = {src: 0}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        if w == dst:
            return dist[w]
        for u in region.neighbors(w):
            if u in vset and u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    return None


def test_path_within_is_shortest_and_deterministic():
    region = build_region(6)
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        vset = random_connected_subset(region, rng, region.num_vertices)
        vlist = sorted(vset)
        src = vlist[rng.randrange(len(vlist))]
        dst = vlist[rng.randrange(len(vlist))]
        expected = _bfs_distance(region, vset, src, dst)
        if expected is None:
            continue
        m = region.mask_of(vset)
        path = path_within(region, m, src, dst)
        assert path == path_within(region, m, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) == expected + 1
        assert all(v in vset for v in path)
        for a, b in zip(path, path[1:]):
            assert region.adjacent(a, b)
        checked += 1
    assert checked > 100


def test_path_within_errors():
    region = build_region(5)
    with pytest.raises(StructuralError):
        path_within(region, region.mask_of({(1, 1)}), (1, 1), (2, 1))
    with pytest.raises(StructuralError):
        path_within(region, region.mask_of({(1, 1), (3, 1)}), (1, 1), (3, 1))


# -- vertices_enclosed -----------------------------------------------------------


def test_vertices_enclosed_region_boundary():
    for n in (4, 5, 6, 8):
        region = build_region(n)
        inside = vertices_enclosed(region, region.boundary_cycle())
        assert inside == region.mask_of(
            region.vertex_set - boundary_vertices(region)
        )


def test_vertices_enclosed_small_cycles():
    region = build_region(5)
    # one face encloses nothing
    assert vertices_enclosed(region, region.faces[0]) == 0
    # the hexagon around an interior vertex encloses exactly that vertex
    center = (3, 2)
    hexagon = [
        region.line_step(center, d) for d in range(6)
    ]
    # reorder into a closed walk
    ring = [hexagon[0]]
    remaining = set(hexagon[1:])
    while remaining:
        nxt = next(
            u for u in sorted(remaining) if region.adjacent(ring[-1], u)
        )
        ring.append(nxt)
        remaining.discard(nxt)
    assert vertices_enclosed(region, ring) == region.bit_of[center]


def test_vertices_enclosed_rejects_broken_cycles():
    region = build_region(5)
    with pytest.raises(StructuralError):
        vertices_enclosed(region, [(1, 1), (3, 1), (2, 1)])


# -- bfs_last_order --------------------------------------------------------------


def test_bfs_last_order_prefixes_stay_connected():
    region = build_region(6)
    rng = random.Random(7)
    for _ in range(200):
        vset = random_connected_subset(region, rng, region.num_vertices)
        root = sorted(vset)[rng.randrange(len(vset))]
        order = bfs_last_order(region, region.mask_of(vset), root)
        assert order[0] == root
        assert set(order) == set(vset)
        for cut in range(1, len(order) + 1):
            assert is_connected(region, order[:cut])
        if len(order) > 1:
            last = order[-1]
            last_nbhd = [u for u in region.neighbors(last) if u in vset]
            assert 0 < len(last_nbhd) < 6
            assert is_connected(region, last_nbhd)


def test_bfs_last_order_first_child_and_errors():
    region = build_region(5)
    m = region.mask_of({(1, 1), (2, 1), (2, 2), (3, 2)})
    order = bfs_last_order(region, m, (1, 1), first_child=(2, 2))
    assert order[:2] == [(1, 1), (2, 2)]
    with pytest.raises(StructuralError):
        bfs_last_order(region, m, (4, 4))
    with pytest.raises(StructuralError):
        bfs_last_order(region, m, (1, 1), first_child=(3, 2))
    with pytest.raises(StructuralError):
        bfs_last_order(region, region.mask_of({(1, 1), (3, 1)}), (1, 1))


# -- cycle recombination ---------------------------------------------------------


def _ring_partition():
    # an 8-cycle in district 1 except x=(3,2) in district 2, enclosing the
    # two interior vertices (4,2) in district 1 and (4,3) in district 2
    region = build_region(6)
    ring = [(4, 1), (5, 2), (5, 3), (5, 4), (4, 4), (3, 3), (3, 2), (3, 1)]
    interior = {(4, 2): 1, (4, 3): 2}
    labels = [3] * region.num_vertices
    for v in ring:
        labels[region.index_of[v]] = 1
    labels[region.index_of[(3, 2)]] = 2
    for v, d in interior.items():
        labels[region.index_of[v]] = d
    p = Partition(region, (8, 2, 11), tuple(labels))
    return region, ring, p


def test_cycle_recombine_swaps_the_interior():
    region, ring, p = _ring_partition()
    q = cycle_recombine(p, ring, x=(3, 2), y=(3, 3))
    # one recombination step of districts 1 and 2; district 3 is untouched
    assert [a == b for a, b in zip(q.masks(), p.masks())] == [False, False, True]
    assert q.sizes() == p.sizes()
    changed = {
        v
        for v in region.vertices
        if q.district(v) != p.district(v)
    }
    assert changed == {(4, 2), (4, 3)}
    assert q.district((4, 3)) == 1 and q.district((4, 2)) == 2
    # afterwards y's district-1 neighbors inside the disc form one block
    inside = set(ring) | {(4, 2), (4, 3)}
    nbhd = [
        u
        for u in region.neighbors((3, 3))
        if u in inside and q.district(u) == 1
    ]
    assert is_connected(region, nbhd)


def test_cycle_recombine_rejects_bad_inputs():
    region, ring, p = _ring_partition()
    with pytest.raises(StructuralError):
        cycle_recombine(p, ring, x=(4, 1), y=(3, 1))  # x in the ring district
    with pytest.raises(StructuralError):
        cycle_recombine(p, ring, x=(3, 2), y=(5, 3))  # y not adjacent to x
    with pytest.raises(StructuralError):
        # y=(3,1) sees only the district-1 interior vertex: no seed
        cycle_recombine(p, ring, x=(3, 2), y=(3, 1))


# -- towers ----------------------------------------------------------------------


def test_checked_flip_accepts_exactly_the_valid_flips(pool5):
    # on a state known valid (the applied flip's carried validity is the
    # check) and on a copy of unknown validity (flip_valid first), against
    # the full recomputation on a copy built from labels alone
    accepted = refused = 0
    for p in pool5[:20]:
        full = unclassified(p)
        for start in (p, unclassified(p)):
            for v in p.region.vertices:
                for to in (1, 2, 3):
                    q = _checked_flip(start, v, to)
                    if flip_valid(full, v, to):
                        assert q is not None
                        assert q.labels[p.region.index_of[v]] == to
                        accepted += 1
                    else:
                        assert q is None
                        refused += 1
    assert accepted > 100 and refused > 100


def test_towers_found_in_samples_resolve_correctly(pool5):
    built = 0
    for p in pool5:
        region = p.region
        for v1 in region.vertices:
            for v2 in region.neighbors(v1):
                try:
                    tower, v_next = build_tower(p, v1, v2)
                except StructuralError:
                    continue
                built += 1
                chain = tower + [v_next]
                assert chain[0] == v1 and chain[1] == v2
                assert len(tower) >= 2
                # the chain is a straight line of alternating districts
                d = region.direction_of(v1, v2)
                for a, b in zip(chain, chain[1:]):
                    assert region.line_step(a, d) == b
                    assert p.district(a) != p.district(b)
                # every inner chain vertex was blocked before resolution
                for i in range(1, len(chain) - 1):
                    assert not flip_valid(p, chain[i], p.district(chain[i - 1]))
                assert flip_valid(p, v_next, p.district(tower[-1]))
                states = execute_tower(p, tower, v_next)
                assert len(states) == len(chain) - 1
                # one flip per state; from a valid state each carries its
                # validity
                assert p._valid is True
                for before, after in zip([p] + states, states):
                    moved = [a != b for a, b in zip(before.labels, after.labels)]
                    assert moved.count(True) == 1 and after._valid is True
                q = states[-1]
                # net effect: the top district gains one vertex and the
                # district past the bottom loses one (they may coincide)
                expected = [0, 0, 0]
                expected[p.district(v1) - 1] += 1
                expected[p.district(v_next) - 1] -= 1
                deltas = [
                    q.sizes()[d - 1] - p.sizes()[d - 1] for d in (1, 2, 3)
                ]
                assert deltas == expected
    assert built >= 5


def test_build_tower_rejects_resolvable_pairs(pool5):
    p = pool5[0]
    region = p.region
    for v1 in region.vertices:
        for v2 in region.neighbors(v1):
            if p.district(v1) != p.district(v2) and flip_valid(
                p, v2, p.district(v1)
            ):
                with pytest.raises(StructuralError):
                    build_tower(p, v1, v2)
                return
    pytest.skip("no directly resolvable pair in the first sample")


# -- unwinding -------------------------------------------------------------------


def _unwind_instance():
    region = build_region(6)
    labels = []
    for v in region.vertices:
        if v[0] <= 3 or v in {(4, 1), (4, 2)}:
            labels.append(1)
        elif v[0] <= 5:
            labels.append(2)
        else:
            labels.append(3)
    p = Partition(region, (7, 7, 7), tuple(labels))
    assert p.sizes() == (8, 7, 6)
    return p


def _arms(p, s1, s2):
    return p.region.mask_of(s1), p.region.mask_of(s2)


def test_unwind_reaches_balance():
    p = _unwind_instance()
    s1, s2 = _arms(p, {(4, 1), (4, 2)}, {(5, 4), (5, 5)})
    states, outcome = unwind(p, s1, s2)
    assert outcome == "balanced"
    assert states[-1].sizes() == (7, 7, 7)
    # one flip per state
    for before, after in zip([p] + states, states):
        assert sum(a != b for a, b in zip(before.labels, after.labels)) == 1


def test_unwind_respects_protected_vertex():
    p = _unwind_instance()
    s1, s2 = _arms(p, {(4, 1), (4, 2)}, {(5, 4), (5, 5)})
    states, outcome = unwind(p, s1, s2, protected=(5, 4))
    assert outcome == "balanced"
    assert all(q.district((5, 4)) == p.district((5, 4)) for q in states)


def test_unwind_rejects_adjacent_arms_and_mismatched_districts():
    p = _unwind_instance()
    with pytest.raises(StructuralError):
        unwind(p, *_arms(p, {(4, 1), (4, 2)}, {(5, 1)}))  # arms touch
    with pytest.raises(StructuralError):
        # s1 not in district 1
        unwind(p, *_arms(p, {(5, 4)}, {(5, 5)}))
    with pytest.raises(StructuralError):
        unwind(p, *_arms(p, set(), {(5, 4)}))
