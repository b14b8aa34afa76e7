"""Brute-force enumeration oracle: subset generation, window enumeration,
state-graph construction, rigidity, and eccentricities."""

import itertools

import pytest

from trirecom import build_region, build_state_graph, enumerate_omega, in_omega
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
from trirecom.partition import is_simply_connected


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


def test_enumerate_matches_bruteforce_n3(omega3_exact, omega3_relaxed):
    region = build_region(3)
    for slack, fast in ((0, omega3_exact), (1, omega3_relaxed)):
        slow = enumerate_omega_bruteforce(region, (2, 2, 2), slack)
        assert [p.labels for p in fast] == [p.labels for p in slow]


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
