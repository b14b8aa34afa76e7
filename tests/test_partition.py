"""Partition predicates: connectivity, windows, neighborhoods, cut and
exposed vertices, tricolor triangles, case dispatch, and block states."""

import itertools
import random

import pytest

from trirecom import (
    Partition,
    apply_flip,
    build_region,
    flip_valid,
    ground_state,
    in_omega,
)
from trirecom.partition import (
    BalanceClass,
    at_most_one_arc,
    case_dispatch,
    classify,
    connected_components,
    districts_adjacent,
    exposed_vertices,
    ground_states,
    is_connected,
    is_cut_vertex,
    is_simply_connected,
    is_valid,
    tricolor_triangles,
)
from trirecom.partition import is_exposed, own_neighborhood_connected

from support import (
    balanced_targets,
    random_connected_subset,
    random_interior_tripartition,
    random_omega_state,
    scan_tricolor_triangles,
    unclassified,
)


def _bfs_connected(region, vset):
    vset = set(vset)
    if not vset:
        return True
    seen = {next(iter(sorted(vset)))}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in region.neighbors(v):
            if u in vset and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vset


@pytest.fixture(scope="module")
def pool5():
    region = build_region(5)
    rng = random.Random(101)
    return [random_omega_state(region, (5, 5, 5), rng) for _ in range(60)]


def test_connected_components_against_plain_bfs():
    region = build_region(6)
    rng = random.Random(3)
    for _ in range(300):
        vset = set()
        for v in region.vertices:
            if rng.random() < 0.5:
                vset.add(v)
        comps = connected_components(region, vset)
        assert set().union(*comps) == vset if comps else not vset
        for c in comps:
            assert _bfs_connected(region, c)
        for c1, c2 in itertools.combinations(comps, 2):
            assert not any(
                region.adjacent(u, v) for u in c1 for v in c2
            )
        assert is_connected(region, vset) == (len(comps) <= 1)
        assert is_connected(region, vset) == _bfs_connected(region, vset)


def test_simply_connected_detects_holes():
    region = build_region(5)
    center = (3, 2)
    ring = frozenset(region.neighbors(center))
    assert is_connected(region, ring)
    assert not is_simply_connected(region, ring)
    assert is_simply_connected(region, ring | {center})
    # empty sets are rejected: districts must be nonempty
    assert not is_simply_connected(region, frozenset())
    assert is_simply_connected(region, {(1, 1)})


def test_simply_connected_random_subsets_have_connected_complement_parts():
    # a simply connected set leaves no component of its complement that is
    # cut off from the boundary of the region
    region = build_region(6)
    rng = random.Random(9)
    for _ in range(300):
        vset = random_connected_subset(region, rng, region.num_vertices - 1)
        rest = region.vertex_set - vset
        enclosed = [
            c
            for c in connected_components(region, rest)
            if not (c & region.boundary)
        ]
        assert is_simply_connected(region, vset) == (not enclosed)


def test_classify_windows(region5):
    targets = (5, 5, 5)
    p = ground_state(region5, targets, (1, 2, 3))
    assert classify(p) is BalanceClass.BALANCED
    assert in_omega(p) and is_valid(p)
    # move one block-edge vertex: sizes (4, 6, 5) stays in the window
    q = p.with_moves([((3, 2), 2)])
    assert q.sizes() == (4, 6, 5)
    assert classify(q) is BalanceClass.NEARLY_BALANCED
    assert in_omega(q)
    # a disconnected district is outside the window regardless of sizes
    bad = p.with_moves([((1, 1), 2), ((2, 1), 2), ((3, 3), 1), ((4, 1), 1)])
    assert not is_valid(bad)
    assert classify(bad) is BalanceClass.OUTSIDE_OMEGA


def test_derived_partitions_are_classified_afresh(region5, pool5):
    block = ground_state(region5, (5, 5, 5), (1, 2, 3))
    for p in [block, *pool5[:20]]:
        cls = classify(p)
        assert cls is not BalanceClass.OUTSIDE_OMEGA
        derived = [
            p.with_moves([]),
            p.relabeled({1: 2, 2: 3, 3: 1}),
            p.permuted(region5.frame(True, 0)[0]),
            p.with_labels(p.labels),
        ]
        for q in derived:
            assert q._class is None
            assert classify(q) is cls
        flips = [
            (v, to)
            for v in region5.vertices
            for to in (1, 2, 3)
            if to != p.district(v)
        ]
        full = unclassified(p)
        broken = [f for f in flips if not flip_valid(full, *f)]
        assert broken
        for v, to in broken:
            q = p.with_moves([(v, to)])
            assert classify(q) is BalanceClass.OUTSIDE_OMEGA
            assert classify(p.with_labels(q.labels)) is BalanceClass.OUTSIDE_OMEGA
        if cls is BalanceClass.BALANCED:
            v, to = next(f for f in flips if f not in broken)
            assert classify(p.with_moves([(v, to)])) is BalanceClass.NEARLY_BALANCED
        assert classify(p) is cls


def test_partition_requires_matching_targets(region5):
    with pytest.raises(ValueError):
        Partition(region5, (5, 5, 6), ground_state(region5, (5, 5, 5), (1, 2, 3)).labels)


def test_relabel_reflect_rotate_preserve_validity(pool5):
    for p in pool5[:20]:
        assert in_omega(p.relabeled({1: 2, 2: 3, 3: 1}).relabeled({2: 1, 3: 2, 1: 3}))
        assert p.reflected().reflected() == p
        assert p.rotated(3) == p
        assert in_omega(p.reflected()) and in_omega(p.rotated())


def test_relabeled_and_permuted_carry_validity(region5, pool5):
    # valid states (carried True), flips that break them (carried False) and
    # copies nothing has checked (unknown, which stays unknown)
    frames = [
        region5.frame(reflect, turns)[0]
        for reflect in (False, True)
        for turns in (0, 1, 2)
    ]
    perms = [
        dict(zip((1, 2, 3), perm)) for perm in itertools.permutations((1, 2, 3))
    ]
    seen = {True: 0, False: 0, None: 0}
    for p in pool5[:10]:
        assert is_valid(p)
        broken = next(
            q
            for v in region5.vertices
            for to in (1, 2, 3)
            if to != p.district(v)
            and (q := apply_flip(p, v, to))._valid is False
        )
        for q in (p, broken, unclassified(broken)):
            derived = [q.relabeled(perm) for perm in perms]
            derived += [q.permuted(source) for source in frames]
            for r in derived:
                assert r._valid is q._valid
                if r._valid is not None:
                    assert r._valid == is_valid(unclassified(r))
                seen[r._valid] += 1
    assert seen == {True: 120, False: 120, None: 120}


def _assert_equals_a_fresh_partition(r):
    # everything a derived partition carries equals what the constructor
    # computes from its labels
    fresh = Partition(r.region, r.targets, r.labels)
    assert type(r.labels) is tuple and type(r.targets) is tuple
    assert r.labels == fresh.labels and r.targets == fresh.targets
    assert r.masks() == fresh.masks()
    assert r.sizes() == fresh.sizes()
    assert r.districts() == fresh.districts()
    assert r == fresh and hash(r) == hash(fresh)
    assert r._valid is None or r._valid == is_valid(fresh)
    assert r._class is None


@pytest.mark.parametrize("n", [5, 8, 16])
def test_derived_partitions_equal_fresh_ones(n):
    # valid, invalid and unknown-validity parents, each with nothing cached
    # and with masks and district sets cached, through every derivation
    region = build_region(n)
    targets = balanced_targets(n)
    rng = random.Random(40 + n)
    perms = [
        dict(zip((1, 2, 3), perm)) for perm in itertools.permutations((1, 2, 3))
    ]
    frames = [
        region.frame(reflect, turns)[0]
        for reflect in (False, True)
        for turns in (0, 1, 2)
    ]
    verts = region.vertices
    carried = {True: 0, False: 0, None: 0}
    for _ in range(3):
        p = random_omega_state(region, targets, rng)
        assert p._valid is True
        broken = next(
            q
            for v in verts
            for to in (1, 2, 3)
            if to != p.district(v)
            and (q := apply_flip(p, v, to))._valid is False
        )
        other = random_omega_state(region, targets, rng).labels
        for parent in (p, broken, unclassified(broken)):
            for warm in (False, True):
                q = Partition(region, parent.targets, parent.labels)
                q._valid = parent._valid
                if warm:
                    q.masks()
                    q.districts()
                derived = [q.relabeled(perm) for perm in perms]
                derived += [q.permuted(source) for source in frames]
                for _ in range(3):
                    moves = [
                        (verts[rng.randrange(len(verts))], rng.randint(1, 3))
                        for _ in range(rng.randint(1, 4))
                    ]
                    derived.append(q.with_moves(moves))
                    v, to = moves[0]
                    derived.append(apply_flip(q, v, to))
                derived.append(apply_flip(q, v, q.district(v)))
                derived.append(q.with_labels(other))
                for r in derived:
                    _assert_equals_a_fresh_partition(r)
                    carried[r._valid] += 1
    assert all(carried.values()), carried


def test_ground_states_are_blocks(region5):
    targets = (5, 5, 5)
    states = ground_states(region5, targets)
    assert len(states) == 6
    assert len({p.labels for p in states.values()}) == 6
    for perm, p in states.items():
        assert classify(p) is BalanceClass.BALANCED
        labels_in_order = [p.district(v) for v in region5.vertices]
        # district blocks appear in perm order along the vertex ordering
        boundaries = [labels_in_order[0]]
        for d in labels_in_order:
            if d != boundaries[-1]:
                boundaries.append(d)
        assert tuple(boundaries) == perm


def test_ground_state_rejects_small_targets():
    region = build_region(5)
    with pytest.raises(ValueError):
        ground_state(region, (3, 6, 6), (1, 2, 3))
    with pytest.raises(ValueError):
        ground_state(region, (5, 5, 5), (1, 1, 2))


def test_at_most_one_arc_counts_slot_runs(pool5):
    for p in pool5[:25]:
        region = p.region
        for v in region.vertices:
            for d in (1, 2, 3):
                # count maximal runs of district-d slots around v, treating
                # OUTSIDE slots as gaps
                slots = region.neighbors_cyclic(v)
                flags = [
                    (u is not None and p.district(u) == d) for u in slots
                ]
                if all(flags):
                    runs = 1
                else:
                    runs = sum(
                        1
                        for i in range(6)
                        if flags[i] and not flags[i - 1]
                    )
                assert at_most_one_arc(p, v, d) == (runs <= 1)


def test_cut_vertex_iff_district_disconnects(pool5):
    for p in pool5[:25]:
        region = p.region
        for v in region.vertices:
            split = len(
                connected_components(region, p.district_set(p.district(v)) - {v})
            ) > 1
            assert is_cut_vertex(p, v) == split
            assert own_neighborhood_connected(p, v) == (not split)


def test_exposed_vertices(pool5):
    for p in pool5[:25]:
        for d in (1, 2, 3):
            expected = {
                v
                for v in p.district_set(d)
                if any(p.district(u) != d for u in p.region.neighbors(v))
            }
            assert exposed_vertices(p, d) == expected
        for v in p.region.vertices:
            assert is_exposed(p, v) == (v in exposed_vertices(p, p.district(v)))


def test_tricolor_triangles_have_three_districts(pool5):
    for p in pool5:
        faces = {t.vertices for t in tricolor_triangles(p)}
        for face in p.region.faces:
            labs = tuple(p.district(v) for v in face)
            assert (len(set(labs)) == 3) == (face in faces)
        for t in tricolor_triangles(p):
            labs = tuple(p.district(v) for v in t.vertices)
            i = labs.index(1)
            assert t.chirality == ("cw" if labs[i:] + labs[:i] == (1, 2, 3) else "ccw")
            for d in (1, 2, 3):
                assert p.district(t.vertex_in(p, d)) == d


def test_tricolor_triangles_equal_the_face_scan_on_the_n5_window(omega5):
    found = 0
    for p in omega5:
        faces = tricolor_triangles(p)
        assert faces == scan_tricolor_triangles(p)
        found += len(faces)
    assert found > 2000


@pytest.mark.parametrize("n", [8, 16, 24])
def test_tricolor_triangles_equal_the_face_scan_on_seeded_states(n):
    region = build_region(n)
    rng = random.Random(8200 + n)
    chiralities = set()
    for k in range(20):
        p = random_omega_state(
            region, balanced_targets(n), rng, attempts=(k + 1) * 30 * n
        )
        faces = tricolor_triangles(p)
        assert faces == scan_tricolor_triangles(p)
        chiralities.update(t.chirality for t in faces)
        q = random_interior_tripartition(region, rng)
        if q is not None:
            assert tricolor_triangles(q) == scan_tricolor_triangles(q)
    assert chiralities == {"cw", "ccw"}


def test_districts_adjacent(pool5):
    for p in pool5[:25]:
        for d1, d2 in itertools.combinations((1, 2, 3), 2):
            expected = any(
                p.district(u) == d2
                for v in p.district_set(d1)
                for u in p.region.neighbors(v)
            )
            assert districts_adjacent(p, d1, d2) == expected


def test_case_dispatch_covers_exactly_one_case(pool5):
    seen = set()
    for p in pool5:
        # dispatch expects the anchor corner inside district 1
        d1 = p.district((1, 1))
        rest = sorted({1, 2, 3} - {d1})
        for d2, d3 in (rest, rest[::-1]):
            q = p.relabeled({d1: 1, d2: 2, d3: 3})
            case = case_dispatch(q)
            assert case in "ABCD"
            seen.add(case)
            bd = q.region.boundary
            if case == "B":
                assert not (q.district_set(2) & bd)
            if case == "C":
                assert not (q.district_set(3) & bd)
            if case == "D":
                assert not districts_adjacent(q, 2, 3)
    assert "A" in seen  # boundary contact is the common case at n=5


def test_ground_state_case_is_boundary_pair(region5):
    p = ground_state(region5, (5, 5, 5), (1, 2, 3))
    assert case_dispatch(p) == "A"
