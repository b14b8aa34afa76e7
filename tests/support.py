"""Shared test helpers: random state samplers, boundary-run utilities, and the
breadth-first reference definition of simple connectivity."""

from __future__ import annotations

import itertools
import random

from trirecom import (
    Partition,
    apply_flip,
    build_region,
    flip_valid,
    ground_state,
    in_omega,
)
from trirecom.partition import (
    connected_components,
    is_connected,
    is_simply_connected,
)

#: Balanced target vectors used for sampled instances at each side length.
TARGETS_BY_SIDE = {
    5: (5, 5, 5),
    6: (7, 7, 7),
    7: (9, 9, 10),
    8: (12, 12, 12),
}


def bfs_is_simply_connected(region, vset) -> bool:
    """Reference definition by breadth-first search: vset is nonempty and
    connected, and every component of its complement reaches the region
    boundary (all boundary-touching components merge through the exterior)."""
    vset = set(vset)
    if not vset or not is_connected(region, vset):
        return False
    complement = set(region.vertices) - vset
    return all(
        comp & region.boundary
        for comp in connected_components(region, complement)
    )


def random_omega_state(region, targets, rng: random.Random, attempts: int = 300):
    """A pseudo-random window state: a single-vertex-flip walk from a random
    block state, keeping only moves that stay inside the window."""
    perms = list(itertools.permutations((1, 2, 3)))
    p = ground_state(region, targets, perms[rng.randrange(6)])
    verts = region.vertices
    for _ in range(attempts):
        v = verts[rng.randrange(len(verts))]
        to = rng.randrange(1, 4)
        if to == p.district(v):
            continue
        if flip_valid(p, v, to):
            q = apply_flip(p, v, to)
            if in_omega(q):
                p = q
    return p


def random_connected_subset(region, rng: random.Random, max_size: int):
    """A random connected subset grown vertex by vertex."""
    verts = region.vertices
    current = {verts[rng.randrange(len(verts))]}
    size = rng.randrange(1, max_size + 1)
    while len(current) < size:
        frontier = [
            u
            for v in current
            for u in region.neighbors(v)
            if u not in current
        ]
        if not frontier:
            break
        current.add(frontier[rng.randrange(len(frontier))])
    return frozenset(current)


def random_interior_tripartition(region, rng: random.Random):
    """A random valid tripartition whose district 3 avoids the region
    boundary, or None when the random growth dead-ends.

    District 3 is grown as a simply connected interior subset; the rest is
    split into districts 1 and 2 by growth steps that keep both sides simply
    connected.  Targets are set to the realized sizes, so the result is a
    valid balanced partition of an arbitrary-size instance.
    """
    interior = [v for v in region.vertices if v not in region.boundary]
    size3 = rng.randrange(1, len(interior) + 1)
    start = interior[rng.randrange(len(interior))]
    s3 = {start}
    while len(s3) < size3:
        frontier = [
            u
            for v in s3
            for u in region.neighbors(v)
            if u not in s3 and u not in region.boundary
        ]
        if not frontier:
            break
        c = frontier[rng.randrange(len(frontier))]
        s3.add(c)
        if not is_simply_connected(region, s3):
            s3.discard(c)
            if all(
                not is_simply_connected(region, s3 | {u}) for u in frontier
            ):
                break
    if not is_simply_connected(region, s3):
        return None
    rest = region.vertex_set - frozenset(s3)
    rest_list = sorted(rest)
    size1 = rng.randrange(1, len(rest))
    p1 = {rest_list[rng.randrange(len(rest_list))]}
    tries = 0
    while len(p1) < size1 and tries < 200:
        tries += 1
        frontier = [
            u
            for v in p1
            for u in region.neighbors(v)
            if u in rest and u not in p1
        ]
        c = frontier[rng.randrange(len(frontier))]
        cand = p1 | {c}
        other = rest - cand
        if (
            other
            and is_simply_connected(region, cand)
            and is_simply_connected(region, other)
        ):
            p1 = cand
    p2 = rest - p1
    if (
        not p2
        or not is_simply_connected(region, p1)
        or not is_simply_connected(region, p2)
    ):
        return None
    labels = [0] * region.num_vertices
    for v in p1:
        labels[region.index_of[v]] = 1
    for v in p2:
        labels[region.index_of[v]] = 2
    for v in s3:
        labels[region.index_of[v]] = 3
    return Partition(region, (len(p1), len(p2), len(s3)), tuple(labels))


def cyclic_runs(seq):
    """Maximal runs of a cyclic sequence, merged across the wraparound."""
    out = []
    for x in seq:
        if not out or out[-1] != x:
            out.append(x)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def boundary_pair_alternates(p: Partition) -> bool:
    """True when some district pair appears as i..j..i..j around bd(T)."""
    cycle_labels = [p.district(v) for v in p.region.boundary_cycle()]
    for i, j in itertools.combinations((1, 2, 3), 2):
        restricted = [d for d in cycle_labels if d in (i, j)]
        if len(cyclic_runs(restricted)) > 2:
            return True
    return False


def state_pool(n, count, seed, attempts=300):
    """A deterministic pool of sampled window states for side n."""
    region = build_region(n)
    targets = TARGETS_BY_SIDE[n]
    rng = random.Random(seed)
    return [
        random_omega_state(region, targets, rng, attempts) for _ in range(count)
    ]
