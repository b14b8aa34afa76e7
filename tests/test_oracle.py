"""Brute-force enumeration oracle: subset generation, window enumeration,
state-graph construction, rigidity, and eccentricities."""

import hashlib
import itertools

import pytest

from trirecom import Partition, build_region, build_state_graph, enumerate_omega, in_omega
from trirecom.moves import recom_valid
from trirecom.oracle import (
    MAX_ENUMERATION_SIDE,
    check_connected,
    enumerate_omega_bruteforce,
    eccentricity_stats,
    rigid_states,
    simply_connected_subsets,
    unlabeled_form,
)
from trirecom.partition import is_simply_connected, is_valid


def test_simply_connected_subsets_counts_and_uniqueness():
    region = build_region(4)
    for sizes in ({1}, {2}, {3}, {1, 2, 3, 4, 5}):
        subsets = list(simply_connected_subsets(region, sizes))
        assert len(subsets) == len(set(subsets))
        for s in subsets:
            assert len(s) in sizes
            assert is_simply_connected(region, s)
        # cross-check against the definition by exhaustive filtering
        expected = sum(
            1
            for size in sizes
            for combo in itertools.combinations(region.vertices, size)
            if is_simply_connected(region, combo)
        )
        assert len(subsets) == expected


def test_simply_connected_subsets_respects_allowed():
    region = build_region(4)
    allowed = frozenset(v for v in region.vertices if v[0] <= 3)
    for s in simply_connected_subsets(region, {2, 3}, allowed=allowed):
        assert s <= allowed


def test_simply_connected_subsets_equal_filter_over_allowed():
    region = build_region(4)
    for allowed in (
        frozenset(v for v in region.vertices if v[0] <= 3),
        frozenset(v for v in region.vertices if (v[0] + v[1]) % 3),
        region.vertex_set - {(3, 2)},
    ):
        sizes = {1, 2, 3, 4, 5}
        subsets = list(simply_connected_subsets(region, sizes, allowed=allowed))
        assert len(subsets) == len(set(subsets))
        ordered = sorted(allowed, key=region.index_of.get)
        expected = {
            frozenset(combo)
            for size in sizes
            for combo in itertools.combinations(ordered, size)
            if is_simply_connected(region, combo)
        }
        assert set(subsets) == expected


def _labels_digest(states) -> str:
    # sha256 over the label arrays in list order, one byte per vertex
    return hashlib.sha256(b"".join(bytes(p.labels) for p in states)).hexdigest()


# (n, targets, slack) -> (count, digest) of enumerate_omega, frozen from the
# enumerator before it moved to bitboards: the list must keep its contents
# and its order.
FROZEN_WINDOWS = {
    (4, (3, 3, 4), 0): (72, "01ab21f7de21763911a5ce5e45399175824d987eba810062674073aac05d62cd"),
    (4, (3, 3, 4), 1): (510, "7fdc207857219cbfa3fe43749fdb685917bae2159ea846447e6af571b5b76f28"),
    (5, (5, 5, 5), 0): (462, "f488d78cba93d2fcd9208691d095b89a50cfc5188b15ab152bd1e159025311b0"),
    (5, (5, 5, 5), 1): (3306, "b52baa8e2bc734534e4bbc9fa0bef9f1b435ddd8aa567b4307ea638c67c99dc8"),
    (5, (4, 5, 6), 0): (474, "c1b6adf26156e08fdf94235fa003776febe5b24da7aa310a03674a685773e8fc"),
    (5, (4, 5, 6), 1): (3357, "28f2b9bb143d61f62a3d150f5a898ca0acf559415f69c2c9fb958e3cb07f7e9b"),
    (5, (6, 4, 5), 0): (474, "5c4e17de7f71dd89ed3c90bd5f22de61d55c0e20192d48ca86120cff787ca1c4"),
    (5, (6, 4, 5), 1): (3357, "8dbc3f494d994f7dbec8c356972af90b5da1719723b1321eb3166f813bfbdfe7"),
    (5, (5, 6, 4), 0): (474, "46f8106268cd2ee9df0bfcc805b9aee4d623adae015417c417868d8fbe689653"),
    (5, (5, 6, 4), 1): (3357, "155434801fd26b4dd7a4955c70009855eae9449dee0f50a32d64433cc8a293fc"),
}

# the same for the slack-1 n=6 windows of the three target shapes
FROZEN_WINDOWS_N6 = {
    (6, (7, 7, 7), 1): (37020, "6bc8de246d6a761cbc9424b249c00e863d7344ebbf510187675e71a650f0a23b"),
    (6, (6, 7, 8), 1): (36783, "6a853863f2e85f7e1d92b9be91cd12da610ca227857a0a9cb9235ead95e78fb8"),
    (6, (6, 6, 9), 1): (36264, "8ebd4a7db251d49da6c555691150cdc4440be15e9b6ed95e191791059a0489b5"),
}


def _check_frozen(key, frozen):
    n, targets, slack = key
    states = enumerate_omega(build_region(n), targets, slack)
    labels = [p.labels for p in states]
    assert len(set(labels)) == len(labels)
    assert (len(states), _labels_digest(states)) == frozen[key]
    for p in states[:: max(1, len(states) // 50)]:
        fresh = Partition(p.region, targets, p.labels)
        assert p.masks() == fresh.masks() and p.targets == fresh.targets
        # enumeration carries the validity it checked
        assert p._valid is True and is_valid(fresh)


@pytest.mark.parametrize("key", sorted(FROZEN_WINDOWS))
def test_enumeration_matches_frozen_digest(key):
    _check_frozen(key, FROZEN_WINDOWS)


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(FROZEN_WINDOWS_N6))
def test_enumeration_matches_frozen_digest_n6(key):
    _check_frozen(key, FROZEN_WINDOWS_N6)


def test_enumerate_matches_bruteforce_n3(omega3_exact, omega3_relaxed):
    region = build_region(3)
    for slack, fast in ((0, omega3_exact), (1, omega3_relaxed)):
        slow = enumerate_omega_bruteforce(region, (2, 2, 2), slack)
        assert [p.labels for p in fast] == [p.labels for p in slow]


@pytest.mark.parametrize("slack", (0, 1))
@pytest.mark.parametrize("targets", ((2, 4, 4), (2, 3, 5)))
def test_enumerate_matches_bruteforce_n4(targets, slack):
    region = build_region(4)
    fast = enumerate_omega(region, targets, slack)
    slow = enumerate_omega_bruteforce(region, targets, slack)
    assert fast
    assert [p.labels for p in fast] == [p.labels for p in slow]


def test_window_is_closed_under_symmetries():
    region = build_region(5)
    labels = {p.labels for p in enumerate_omega(region, (4, 5, 6), 1)}
    for reflect, turns in itertools.product((False, True), range(3)):
        source, _ = region.frame(reflect, turns)
        assert {tuple(lab[i] for i in source) for lab in labels} == labels


def test_frozen_counts_n3(omega3_exact, omega3_relaxed):
    assert len(omega3_exact) == 12
    assert len(omega3_relaxed) == 138
    for p in omega3_relaxed:
        assert in_omega(p)


def test_frozen_counts_n4():
    region = build_region(4)
    states = enumerate_omega(region, (3, 3, 4), slack=1)
    assert len(states) == 510
    graph = build_state_graph(states)
    assert check_connected(graph) == (True, 1)
    # adjacent exactly when some district bitboard is identical, all pairs
    masks = [p.masks() for p in states]
    for i, mi in enumerate(masks):
        assert graph.adjacency[i] == [
            j
            for j, mj in enumerate(masks)
            if j != i and any(a == b for a, b in zip(mi, mj))
        ]


def test_enumeration_rejects_bad_instances():
    with pytest.raises(ValueError):
        enumerate_omega(build_region(MAX_ENUMERATION_SIDE + 1), (10, 9, 9), 1)
    with pytest.raises(ValueError):
        enumerate_omega(build_region(4), (3, 3, 3), 1)  # wrong total
    with pytest.raises(ValueError):
        enumerate_omega(build_region(4), (3, 3, 4), 2)


def test_state_graph_edges_are_recombination_moves(omega3_relaxed):
    graph = build_state_graph(omega3_relaxed)
    for i, nbrs in enumerate(graph.adjacency):
        for j in nbrs:
            assert i != j
            assert recom_valid(graph.states[i], graph.states[j])
    # spot-check completeness on the small instance
    for i, j in itertools.combinations(range(len(graph.states)), 2):
        if recom_valid(graph.states[i], graph.states[j]):
            assert j in graph.adjacency[i]
        else:
            assert j not in graph.adjacency[i]


def test_state_graph_rejects_repeated_state(omega3_relaxed):
    states = list(omega3_relaxed)
    with pytest.raises(ValueError):
        build_state_graph(states + [states[5].with_labels(states[5].labels)])


def test_rigid_states_n3(omega3_exact):
    graph = build_state_graph(omega3_exact)
    rigid = rigid_states(graph)
    assert len(rigid) == 12  # every exact-size state is rigid at n=3
    for p in rigid:
        i = graph.index_of_state(p)
        for j in graph.adjacency[i]:
            assert unlabeled_form(graph.states[j]) == unlabeled_form(p)


def test_unlabeled_form_is_relabel_invariant(omega3_relaxed):
    for p in omega3_relaxed[:40]:
        for perm in itertools.permutations((1, 2, 3)):
            mapping = {1: perm[0], 2: perm[1], 3: perm[2]}
            assert unlabeled_form(p.relabeled(mapping)) == unlabeled_form(p)
    # distinct maps give distinct forms
    assert len(
        {unlabeled_form(p) for p in omega3_relaxed}
    ) == len(omega3_relaxed) // 6


def test_eccentricity_stats_n3(omega3_relaxed):
    graph = build_state_graph(omega3_relaxed)
    stats = eccentricity_stats(graph)
    assert stats["num_states"] == 138
    assert stats["num_components"] == 1
    assert 0 < stats["radius"] <= stats["diameter"]


def test_omega5_count_and_membership(omega5):
    assert len(omega5) == 3306
    labels_seen = {p.labels for p in omega5}
    assert len(labels_seen) == len(omega5)
    for p in omega5[::97]:
        assert in_omega(p)
        assert p.targets == (5, 5, 5)
