"""Brute-force ground truth for small instances: enumerate the state space,
build the recombination state graph, and report connectivity, rigid states,
and eccentricity statistics."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .lattice import TriRegion, Vertex
from .partition import (
    Partition,
    Targets,
    _simply_connected_mask,
)

#: Enumeration is exhaustive; refuse regions where it cannot finish promptly.
MAX_ENUMERATION_SIDE = 6


def simply_connected_subsets(
    region: TriRegion,
    sizes: set[int],
    allowed: frozenset[Vertex] | None = None,
):
    """All simply connected subsets of `allowed` (default: every vertex) whose
    size lies in `sizes`, each generated exactly once by anchored growth: a
    subset is grown only from its smallest vertex in ordering order."""
    bit_of, w = region.bit_of, region.width
    if allowed is None:
        allowed = region.vertex_set
    if not sizes:
        return
    max_size = max(sizes)
    order = {v: region.index_of[v] for v in region.vertices}
    allowed_sorted = sorted(allowed, key=order.get)

    def grow(current: set, mask: int, candidates: list, banned: set):
        # Yields every valid strict superset of `current` (bitboard `mask`)
        # reachable by adding candidates; each subset is produced exactly
        # once because candidates are consumed in ascending order and
        # skipped ones are banned.
        if len(current) == max_size:
            return
        cands = sorted(candidates, key=order.get)
        for i, c in enumerate(cands):
            current.add(c)
            grown = mask | bit_of[c]
            if len(current) in sizes and _simply_connected_mask(grown, w):
                yield frozenset(current)
            later = cands[i + 1 :]
            new_banned = banned | set(cands[:i])
            extra = [
                u
                for u in region.neighbors(c)
                if u in allowed
                and order[u] > anchor_order
                and u not in current
                and u not in new_banned
                and u not in later
            ]
            yield from grow(current, grown, later + extra, new_banned)
            current.discard(c)

    for anchor in allowed_sorted:
        anchor_order = order[anchor]
        if 1 in sizes:
            yield frozenset([anchor])
        start_candidates = [
            u
            for u in region.neighbors(anchor)
            if u in allowed and order[u] > anchor_order
        ]
        yield from grow({anchor}, bit_of[anchor], start_candidates, set())


def enumerate_omega(
    region: TriRegion, targets: Targets, slack: int = 1
) -> list[Partition]:
    """Every partition into three simply connected districts whose sizes lie
    within +/- slack of their targets, in deterministic label order."""
    if slack not in (0, 1):
        raise ValueError("slack must be 0 or 1")
    if region.n > MAX_ENUMERATION_SIDE:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ENUMERATION_SIDE}"
        )
    k1, k2, k3 = targets
    total = region.num_vertices
    if k1 + k2 + k3 != total:
        raise ValueError("targets must sum to the vertex count")
    sizes1 = set(range(k1 - slack, k1 + slack + 1))
    sizes2 = set(range(k2 - slack, k2 + slack + 1))
    sizes3 = set(range(k3 - slack, k3 + slack + 1))
    out = []
    for s1 in simply_connected_subsets(region, sizes1):
        rest = region.vertex_set - s1
        for s2 in simply_connected_subsets(region, sizes2, allowed=rest):
            s3 = rest - s2
            if len(s3) not in sizes3:
                continue
            if not _simply_connected_mask(region.mask_of(s3), region.width):
                continue
            labels = [0] * total
            for v in s1:
                labels[region.index_of[v]] = 1
            for v in s2:
                labels[region.index_of[v]] = 2
            for v in s3:
                labels[region.index_of[v]] = 3
            out.append(Partition(region, targets, tuple(labels)))
    out.sort(key=lambda p: p.labels)
    return out


def enumerate_omega_bruteforce(
    region: TriRegion, targets: Targets, slack: int = 1
) -> list[Partition]:
    """Independent cross-check: filter all 3^N labelings.  Only for tiny n."""
    if region.num_vertices > 12:
        raise ValueError("brute-force labeling only supported for tiny regions")
    out = []
    windows = [
        set(range(k - slack, k + slack + 1)) for k in targets
    ]
    for labels in itertools.product((1, 2, 3), repeat=region.num_vertices):
        p = Partition(region, targets, labels)
        sizes = p.sizes()
        if any(sz not in w for sz, w in zip(sizes, windows)):
            continue
        if all(_simply_connected_mask(m, region.width) for m in p.masks()):
            out.append(p)
    out.sort(key=lambda p: p.labels)
    return out


@dataclass
class StateGraph:
    states: list[Partition]
    adjacency: list[list[int]]
    component_of: list[int]
    num_components: int

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def index_of_state(self, p: Partition) -> int:
        return self._index[p.labels]

    def __post_init__(self):
        self._index = {p.labels: i for i, p in enumerate(self.states)}


def build_state_graph(states: list[Partition]) -> StateGraph:
    """Recombination adjacency over an enumerated state list: two distinct
    states are adjacent iff some district has an identical vertex set in
    both."""
    n = len(states)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for d in (1, 2, 3):
        buckets: dict[int, list[int]] = {}
        for i, p in enumerate(states):
            buckets.setdefault(p.masks()[d - 1], []).append(i)
        for members in buckets.values():
            for i, j in itertools.combinations(members, 2):
                if states[i].labels != states[j].labels:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    adj_sorted = [sorted(s) for s in adjacency]
    comp = [-1] * n
    n_comp = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = n_comp
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in adj_sorted[i]:
                if comp[j] == -1:
                    comp[j] = n_comp
                    queue.append(j)
        n_comp += 1
    return StateGraph(states, adj_sorted, comp, n_comp)


def check_connected(g: StateGraph) -> tuple[bool, int]:
    return g.num_components == 1, g.num_components


def unlabeled_form(p: Partition) -> tuple[int, ...]:
    """Canonical label array with districts renamed by first appearance,
    identifying partitions that differ only by district relabeling."""
    rename: dict[int, int] = {}
    out = []
    for d in p.labels:
        if d not in rename:
            rename[d] = len(rename) + 1
        out.append(rename[d])
    return tuple(out)


def rigid_states(g: StateGraph) -> list[Partition]:
    """States from which no recombination move reaches a genuinely different
    split: every neighbor (if any) is the same partition up to district
    relabeling, so the map of districts can never change."""
    forms = [unlabeled_form(p) for p in g.states]
    return [
        p
        for i, p in enumerate(g.states)
        if all(forms[j] == forms[i] for j in g.adjacency[i])
    ]


def eccentricity_stats(g: StateGraph) -> dict:
    """Exact eccentricities by BFS from every state (per component)."""
    n = len(g.states)
    ecc = []
    for start in range(n):
        dist = {start: 0}
        queue = deque([start])
        far = 0
        while queue:
            i = queue.popleft()
            for j in g.adjacency[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    far = max(far, dist[j])
                    queue.append(j)
        ecc.append(far)
    return {
        "num_states": n,
        "num_components": g.num_components,
        "num_rigid": len(rigid_states(g)),
        "diameter": max(ecc) if ecc else 0,
        "radius": min(ecc) if ecc else 0,
    }
