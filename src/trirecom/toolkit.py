"""Reusable constructive procedures on partitions: shrink-vertex search,
unwinding two non-adjacent arms, BFS-last orderings, cycle recombination,
towers, and exact cycle-interior computation.

Every procedure validates each move it emits; a violated structural
guarantee raises StructuralError rather than producing an unverified step.
find_shrink_vertex scans a candidate bitboard with the local neighborhood
flip test (shrink_flips, which the route builder's removable-vertex scan
shares) and so needs a partition whose districts are simply connected: the
route builder's state, or an unwinding state reached from one by such
checked flips.  Tower resolution and the paired flip of an unwinding round
check each flip by applying it once (_checked_flip): from a state known
valid, moves.apply_flip carries the local test's exact answer to the
flipped state, and that answer is the check, so every checked intermediate
state is known valid; only on a start state whose validity is unknown does
flip_valid recompute both changed districts first.
"""

from __future__ import annotations

from collections import deque

from .lattice import ONE_ARC, OUTSIDE, TriRegion, Vertex, ordering_index
from .moves import RecomStep, apply_flip, flip_valid, untouched_of_flip
from .partition import Partition, component_of


class StructuralError(Exception):
    """A guarantee the construction relies on failed to hold."""


class NoShrinkVertex(StructuralError):
    """No vertex of the given set admits a valid flip to a preferred
    district."""


# -- shrink-vertex search -----------------------------------------------------


def shrink_flips(p: Partition, cands: int, prefer: tuple[int, ...]):
    """Yield (vertex, target) for each vertex of the candidate bitboard, in
    ascending ordering index, that is exposed, is not a cut vertex of its
    own district, and has a valid flip to a district of `prefer`; the target
    is the first such district.  Validity is neighborhood_flip_test's,
    read from the same slot patterns, so every district of p must be simply
    connected."""
    region = p.region
    masks = p.masks()
    m1, m2, m3 = masks
    full = region.full_mask
    exposed = 0
    for m in masks:
        if cands & m:
            exposed |= cands & m & region.neighbors_mask(full ^ m)
    vertex_at, slot_pattern = region.vertex_at, region.slot_pattern
    while exposed:
        low = exposed & -exposed
        exposed ^= low
        own = 1 if low & m1 else (2 if low & m2 else 3)
        m_own = masks[own - 1]
        v = vertex_at[low.bit_length() - 1]
        # a cut vertex, or its district's only vertex, never flips
        if not ONE_ARC[slot_pattern(m_own, v)] or m_own == low:
            continue
        for to in prefer:
            if to != own:
                target = slot_pattern(masks[to - 1], v)
                if target and ONE_ARC[target]:
                    yield v, to
                    break


def find_shrink_vertex(
    p: Partition, subset, prefer: tuple[int, ...]
) -> tuple[Vertex, int]:
    """The first vertex of `subset` (ascending ordering index) admitting a
    valid flip to a district in `prefer` (tried in order per vertex), as
    (vertex, target).  Candidates are exposed non-cut vertices of their own
    district; raises NoShrinkVertex when none qualifies.  Every district of
    p must be simply connected (the local flip test's precondition)."""
    cands = p.region.mask_of(subset)
    for found in shrink_flips(p, cands, prefer):
        return found
    raise NoShrinkVertex(
        f"no flippable vertex in a set of {cands.bit_count()} "
        f"(preferred districts {prefer})"
    )


# -- path and interior helpers ------------------------------------------------


def path_within(
    region: TriRegion, vset, src: Vertex, dst: Vertex
) -> list[Vertex]:
    """A shortest path from src to dst inside vset, deterministic via
    ascending-ordering-index BFS."""
    vset = set(vset)
    if src not in vset or dst not in vset:
        raise StructuralError("path endpoints must lie in the set")
    parent: dict[Vertex, Vertex | None] = {src: None}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        if w == dst:
            break
        for u in sorted(region.neighbors(w), key=ordering_index):
            if u in vset and u not in parent:
                parent[u] = w
                queue.append(u)
    if dst not in parent:
        raise StructuralError("path endpoints are not connected in the set")
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _planar_point(v: Vertex) -> tuple[int, int]:
    # Integer straight-line embedding (an affine image of the drawing
    # geometry, so it preserves which vertices a cycle encloses).
    col, row = v
    return (col, 2 * row - col)


def _strictly_inside(p: tuple[int, int], poly: list[tuple[int, int]]) -> bool:
    # Exact integer ray casting; query points never lie on polygon edges
    # because no lattice vertex is strictly between two adjacent ones.
    px, py = p
    inside = False
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        if (y1 > py) != (y2 > py):
            cross = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
            if (cross > 0) if y2 > y1 else (cross < 0):
                inside = not inside
    return inside


def vertices_enclosed(region: TriRegion, cycle) -> frozenset[Vertex]:
    """Region vertices strictly inside the closed lattice walk `cycle` (a
    sequence of pairwise-adjacent vertices, last adjacent to first)."""
    cycle = list(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not region.adjacent(a, b):
            raise StructuralError(f"cycle vertices {a} and {b} not adjacent")
    poly = [_planar_point(v) for v in cycle]
    on_cycle = set(cycle)
    return frozenset(
        v
        for v in region.vertices
        if v not in on_cycle and _strictly_inside(_planar_point(v), poly)
    )


# -- BFS-last ordering --------------------------------------------------------


def bfs_last_order(
    region: TriRegion, vset, root: Vertex, first_child: Vertex | None = None
) -> list[Vertex]:
    """BFS visit order of vset from root; children enqueue in ascending
    ordering index, except that first_child (a neighbor of root) enqueues
    first.  The last vertex has a connected neighborhood inside vset of size
    below six."""
    vset = set(vset)
    if root not in vset:
        raise StructuralError("BFS root must lie in the set")
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        w = queue.popleft()
        nbrs = sorted(
            (u for u in region.neighbors(w) if u in vset and u not in seen),
            key=ordering_index,
        )
        if w == root and first_child is not None:
            if first_child not in nbrs:
                raise StructuralError("first_child must be a fresh root neighbor")
            nbrs.remove(first_child)
            nbrs.insert(0, first_child)
        for u in nbrs:
            seen.add(u)
            order.append(u)
            queue.append(u)
    if len(order) != len(vset):
        raise StructuralError("BFS set is not connected")
    return order


# -- cycle recombination ------------------------------------------------------


def cycle_recombine(
    p: Partition,
    cycle,
    x: Vertex,
    y: Vertex,
    keep: Vertex | None = None,
    note: str = "cycle-recombine",
) -> tuple[Partition, RecomStep]:
    """One recombination step rearranging the interior of `cycle`.

    The cycle lies in one district except for x; y is a cycle neighbor of x
    whose in-or-inside neighborhood meets x's district disconnectedly.  The
    interior component adjacent to y's inside x-district neighbor is
    reassigned by BFS-last order from x: the farthest vertices keep the
    majority district's count, so both district sizes are unchanged and the
    in-or-inside neighborhood of y in the cycle district becomes connected.
    `keep`, if given, is a neighbor of x inside the cycle that must stay in
    x's district.
    """
    region = p.region
    d_x = p.district(x)
    ring = [v for v in cycle if v != x]
    ring_districts = {p.district(v) for v in ring}
    if len(ring_districts) != 1:
        raise StructuralError("cycle must be one district except for x")
    d_ring = ring_districts.pop()
    if d_ring == d_x:
        raise StructuralError("x must be in a different district than the cycle")
    if y not in ring or not region.adjacent(x, y):
        raise StructuralError("y must be a cycle neighbor of x")
    interior = vertices_enclosed(region, cycle)
    for v in interior:
        if p.district(v) not in (d_ring, d_x):
            raise StructuralError("interior touches a third district")
    seeds = [
        u
        for u in region.neighbors(y)
        if u in interior and p.district(u) == d_x
    ]
    if not seeds:
        raise StructuralError("y has no inside neighbor in x's district")
    seed = min(seeds, key=ordering_index)
    inner = component_of(region, interior, seed)
    if not any(region.adjacent(x, v) for v in inner):
        raise StructuralError("inner component must touch x")
    order = bfs_last_order(region, set(inner) | {x}, x, first_child=keep)
    m = sum(1 for v in inner if p.district(v) == d_ring)
    to_ring = set(order[len(order) - m :]) if m else set()
    moves = []
    for v in inner:
        nd = d_ring if v in to_ring else d_x
        if nd != p.district(v):
            moves.append((v, nd))
    if not moves:
        raise StructuralError("cycle recombination must change the interior")
    q = p.with_moves(moves)
    untouched = ({1, 2, 3} - {d_ring, d_x}).pop()
    return q, RecomStep(untouched, q.labels, note)


# -- towers -------------------------------------------------------------------


def _checked_flip(p: Partition, v: Vertex, to: int) -> Partition | None:
    """The flipped partition when the flip is valid, else None.  On a
    partition known valid the flip is applied once and its carried validity
    (the local test, see moves.apply_flip) is the check; on any other
    partition flip_valid recomputes both changed districts first."""
    if p._valid and p.district(v) != to:
        q = apply_flip(p, v, to)
        return q if q._valid else None
    return apply_flip(p, v, to) if flip_valid(p, v, to) else None


def _flip(
    p: Partition, v: Vertex, to: int, note: str, steps: list[RecomStep],
    q: Partition | None = None,
) -> Partition:
    """Append the flip of v into district `to` to `steps` as a
    recombination step and return the flipped partition: q when the caller
    has applied the flip already, else apply_flip's."""
    if q is None:
        q = apply_flip(p, v, to)
    steps.append(RecomStep(untouched_of_flip(p.district(v), to), q.labels, note))
    return q


def build_tower(p: Partition, v1: Vertex, v2: Vertex) -> tuple[list[Vertex], Vertex]:
    """The tower starting at top v1 with second vertex v2 on the line through
    them, as (tower vertices, the first vertex past the bottom).  Requires a
    valid tower start: v1's common neighbors with v2 share v1's district, v2
    is in a different district, and v2 cannot flip to v1's district."""
    region = p.region
    d_top = p.district(v1)
    common = region.common_neighbors(v1, v2)
    if len(common) != 2 or any(p.district(u) != d_top for u in common):
        raise StructuralError("tower top needs both common neighbors in its district")
    if p.district(v2) == d_top:
        raise StructuralError("tower vertices must alternate districts")
    if flip_valid(p, v2, d_top):
        raise StructuralError("second vertex flips directly; no tower needed")
    direction = region.direction_of(v1, v2)
    tower = [v1, v2]
    while True:
        vnext = region.line_step(tower[-1], direction)
        if vnext is OUTSIDE:
            raise StructuralError("tower reached the region boundary")
        if p.district(vnext) == p.district(tower[-1]):
            raise StructuralError("consecutive tower vertices share a district")
        if flip_valid(p, vnext, p.district(tower[-1])):
            return tower, vnext
        tower.append(vnext)


def execute_tower(
    p: Partition, tower: list[Vertex], v_next: Vertex, note: str = "tower"
) -> tuple[Partition, list[RecomStep]]:
    """Resolve a tower bottom-up: flip the vertex past the bottom into the
    bottom's district, then each tower vertex into the district above it,
    ending with the second vertex joining the top's district.  Net effect:
    the top's district grows by one, v_next's original district shrinks by
    one."""
    cur = p
    steps = []
    chain = tower + [v_next]
    for i in range(len(chain) - 1, 0, -1):
        v = chain[i]
        target = cur.district(chain[i - 1])
        q = _checked_flip(cur, v, target)
        if q is None:
            raise StructuralError(f"tower flip {v} -> {target} invalid")
        cur = _flip(cur, v, target, note, steps, q)
    return cur, steps


# -- unwinding ----------------------------------------------------------------


def unwind(
    p: Partition,
    s1,
    s2,
    d1: int,
    d2: int,
    d3: int,
    protected: Vertex | None = None,
    note: str = "unwind",
) -> tuple[Partition, list[RecomStep], str]:
    """Alternately shrink two non-adjacent arms: s1 inside district d1 (one
    above target) and s2 inside district d2 (at target), with d3 one below
    target.  Each round flips one s1 vertex out and one s2 vertex back; the
    first opportunity to feed d3 ends in balance.  `protected`, if given, is
    an s2 vertex that is never reassigned.

    Returns (partition, steps, outcome) with outcome 'balanced',
    's1-exhausted' (all of s1 moved to d2), or 's2-exhausted' (all of s2 but
    the protected vertex moved to d1); the latter two keep d1 oversized and
    d3 undersized."""
    cur = p
    steps: list[RecomStep] = []
    s1 = set(s1)
    s2 = set(s2)
    if not s1 or not (s2 - {protected}):
        raise StructuralError("unwinding needs nonempty reassignable arms")
    if any(cur.district(v) != d1 for v in s1) or any(
        cur.district(v) != d2 for v in s2
    ):
        raise StructuralError("arm districts do not match")
    if any(
        u in s2 for v in s1 for u in cur.region.neighbors(v)
    ):
        raise StructuralError("unwinding arms must not be adjacent")
    while True:
        v1, to1 = find_shrink_vertex(cur, s1, (d3, d2))
        if to1 == d3:
            cur = _flip(cur, v1, d3, note, steps)
            return cur, steps, "balanced"
        v2, to2 = find_shrink_vertex(cur, s2 - {protected}, (d3, d1))
        cur = _flip(cur, v1, d2, note, steps)
        s1.discard(v1)
        q = _checked_flip(cur, v2, to2)
        if q is None:
            raise StructuralError("arm flip invalidated by the paired flip")
        cur = _flip(cur, v2, to2, note, steps, q)
        if to2 == d3:
            return cur, steps, "balanced"
        s2.discard(v2)
        if not s1:
            return cur, steps, "s1-exhausted"
        if not (s2 - {protected}):
            return cur, steps, "s2-exhausted"
