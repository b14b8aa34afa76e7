"""Brute-force ground truth for small instances: enumerate the state space,
build the recombination state graph, and report its components and rigid
states.

Enumeration works on the region's bitboards (see lattice.TriRegion.bit_of).
Simply connected subsets are grown from their lowest bit with int candidate,
banned and grown masks, and every yielded subset is checked by
partition._simply_connected_mask.  The window is closed under the six
symmetries of the triangle, so district 1 runs only over the subsets that are
the least bitboard of their orbit; each one's complement is split into
districts 2 and 3 by growing only the piece that holds the complement's
lowest bit, and each split is emitted as built and under one symmetry per
other image of district 1.  The partitions carry the district bitboards they
were built from.  The state graph joins the states that share a district
bitboard, read off per-district buckets."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .lattice import TriRegion
from .partition import (
    Partition,
    Targets,
    _simply_connected_mask,
)

#: Enumeration is exhaustive; refuse regions where it cannot finish promptly.
MAX_ENUMERATION_SIDE = 6


def _anchored_masks(w: int, sizes: set[int], allowed: int, anchors: int):
    """Bitboards of the simply connected subsets of `allowed` whose size lies
    in `sizes` and whose lowest bit is one of `anchors`, by anchored growth
    on column width w.  Each subset is grown only from its lowest bit, and
    candidates are taken lowest bit first and banned once skipped, so each
    is produced exactly once, anchors and subsets in ascending bit order."""
    max_size = max(sizes)
    w1 = w + 1

    def grow(mask: int, size: int, cands: int, banned: int, above: int):
        # every valid strict superset of `mask` reachable by adding
        # candidates; `above` holds the allowed bits beyond the anchor
        if size == max_size:
            return
        size += 1
        while cands:
            c = cands & -cands
            cands ^= c
            grown = mask | c
            if size in sizes and _simply_connected_mask(grown, w):
                yield grown
            extra = (
                (c << 1 | c >> 1 | c << w | c >> w | c << w1 | c >> w1)
                & above
                & ~grown
                & ~banned
                & ~cands
            )
            yield from grow(grown, size, cands | extra, banned, above)
            banned |= c

    while anchors:
        a = anchors & -anchors
        anchors ^= a
        # the anchor is the one candidate of the empty set
        yield from grow(0, 0, a, 0, allowed & -(a << 1))


def enumerate_omega(
    region: TriRegion, targets: Targets, slack: int = 1
) -> list[Partition]:
    """Every partition into three simply connected districts whose sizes lie
    within +/- slack of their targets, in deterministic label order.

    District 1 runs over the anchored subsets m1 of the region that are the
    least of their images under the reflection and rotations.  Its
    complement `rest` must split into districts 2 and 3, so only the piece t
    holding rest's lowest vertex is grown, over the sizes either district may
    take; t and rest - t are then the two districts in whichever order(s)
    their sizes allow, and every split of rest is produced exactly once.
    Each split is emitted as built and mapped through one frame per other
    image of m1.  The symmetries keep sizes and simple connectivity, and the
    frames that fix m1 only permute its splits, so every state appears
    exactly once."""
    if slack not in (0, 1):
        raise ValueError("slack must be 0 or 1")
    if region.n > MAX_ENUMERATION_SIDE:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ENUMERATION_SIDE}"
        )
    targets = tuple(targets)
    k1, k2, k3 = targets
    total = region.num_vertices
    if k1 + k2 + k3 != total:
        raise ValueError("targets must sum to the vertex count")
    sizes1 = set(range(k1 - slack, k1 + slack + 1))
    sizes2 = set(range(k2 - slack, k2 + slack + 1))
    sizes3 = set(range(k3 - slack, k3 + slack + 1))
    full, w = region.full_mask, region.width
    # the five symmetries other than the identity
    frames = [
        region.frame(reflect, turns)
        for reflect, turns in itertools.product((False, True), range(3))
    ][1:]
    out = []
    for m1 in _anchored_masks(w, sizes1, full, full):
        images = _orbit_images(region, m1, frames)
        if images is None:
            continue
        rest = full ^ m1
        n_rest = rest.bit_count()
        ok2 = {s for s in sizes2 if n_rest - s in sizes3}
        if not rest or not ok2:
            continue
        ok3 = {n_rest - s for s in ok2}
        for t in _anchored_masks(w, ok2 | ok3, rest, rest & -rest):
            u = rest ^ t
            if not _simply_connected_mask(u, w):
                continue
            for m2, m3 in ((t, u), (u, t)):
                if m2.bit_count() not in ok2:
                    continue
                p = _partition(region, targets, (m1, m2, m3))
                out.append(p)
                for i1, (source, image) in images.items():
                    q = p.permuted(source)
                    i2 = region.map_mask(m2, image)
                    q._masks = (i1, i2, full ^ i1 ^ i2)
                    out.append(q)
    out.sort(key=lambda p: p.labels)
    return out


def _orbit_images(region: TriRegion, m1: int, frames) -> dict | None:
    # the images of m1 other than m1 itself, each with one frame that maps
    # m1 onto it; None when some image is less than m1
    images = {}
    for source, image in frames:
        i1 = region.map_mask(m1, image)
        if i1 < m1:
            return None
        if i1 != m1:
            images.setdefault(i1, (source, image))
    return images


def _partition(
    region: TriRegion, targets: Targets, masks: tuple[int, int, int]
) -> Partition:
    # the window state of three district bitboards that enumeration has
    # checked, built with its masks and its validity
    m1, m2, _ = masks
    labels = tuple(1 if b & m1 else 2 if b & m2 else 3 for b in region.bits)
    return Partition._derived(region, targets, labels, masks, True)


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
    """Recombination adjacency over a list of distinct states: two distinct
    states are adjacent iff some district has an identical vertex set in
    both.  Two distinct states cannot share two districts (the third is the
    complement), so a state's neighbours are its three district buckets
    merged, less the state itself.  A repeated state raises ValueError."""
    n = len(states)
    masks = [p.masks() for p in states]
    if len(set(masks)) != n:
        raise ValueError("state list repeats a state")
    buckets: list[dict[int, list[int]]] = [{}, {}, {}]
    for i, ms in enumerate(masks):
        for bucket, m in zip(buckets, ms):
            bucket.setdefault(m, []).append(i)
    b1, b2, b3 = buckets
    adj_sorted = []
    for i, (m1, m2, m3) in enumerate(masks):
        nbrs = b1[m1] + b2[m2] + b3[m3]
        nbrs.sort()
        # i is in all three buckets and no other state is in two
        k = bisect_left(nbrs, i)
        del nbrs[k : k + 3]
        adj_sorted.append(nbrs)
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

