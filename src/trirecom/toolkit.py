"""Reusable constructive procedures on partitions: shrink-vertex search,
unwinding two non-adjacent arms, BFS-last orderings, cycle recombination,
towers, and exact cycle-interior computation.

Every procedure validates each move it makes; a violated structural
guarantee raises StructuralError rather than producing an unverified state.
A step is a partition: cycle_recombine returns the one it reaches, and
execute_tower and unwind the one after each flip, which the route builder
records as they are (pathfinder._Builder.extend).

Vertex sets come in and go out as bitboards (lattice.TriRegion.bit_of):
find_shrink_vertex and unwind take candidate and arm bitboards,
path_within and bfs_last_order search inside one (by vertex BFS, which
keeps their tie-breaks), vertices_enclosed returns one, and cycle_recombine
takes the component it rearranges from TriRegion.component.
find_shrink_vertex scans a candidate bitboard with the local neighborhood
flip test (shrink_flips, which the route builder's removable-vertex scan
shares) and so needs a partition whose districts are simply connected: the
route builder's state, or an unwinding state reached from one by such
checked flips.  Tower resolution and the paired flip of an unwinding round
check each flip by applying it once (_checked_flip): from a state known
valid, moves.apply_flip carries the local test's exact answer to the
flipped state, and that answer is the check, so every checked intermediate
state is known valid and the builder need not check it again; only on a
start state whose validity is unknown does flip_valid recompute both
changed districts first.
"""

from __future__ import annotations

from collections import deque

from .lattice import ONE_ARC, OUTSIDE, TriRegion, Vertex, ordering_index
from .moves import apply_flip, flip_valid
from .partition import Partition


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
    m1, m2, _ = masks
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
    p: Partition, cands: int, prefer: tuple[int, ...]
) -> tuple[Vertex, int]:
    """The first vertex of the candidate bitboard (ascending ordering index)
    admitting a valid flip to a district in `prefer` (tried in order per
    vertex), as (vertex, target).  Candidates are exposed non-cut vertices
    of their own district; raises NoShrinkVertex when none qualifies.  Every
    district of p must be simply connected (the local flip test's
    precondition)."""
    for found in shrink_flips(p, cands, prefer):
        return found
    raise NoShrinkVertex(
        f"no flippable vertex in a set of {cands.bit_count()} "
        f"(preferred districts {prefer})"
    )


# -- path and interior helpers ------------------------------------------------


def path_within(
    region: TriRegion, m: int, src: Vertex, dst: Vertex
) -> list[Vertex]:
    """A shortest path from src to dst inside bitboard m, deterministic via
    ascending-ordering-index BFS."""
    bit_of = region.bit_of
    if not bit_of[src] & m or not bit_of[dst] & m:
        raise StructuralError("path endpoints must lie in the set")
    parent: dict[Vertex, Vertex | None] = {src: None}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        if w == dst:
            break
        for u in sorted(region.neighbors(w), key=ordering_index):
            if bit_of[u] & m and u not in parent:
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


def vertices_enclosed(region: TriRegion, cycle) -> int:
    """The bitboard of the region vertices strictly inside the closed
    lattice walk `cycle` (a sequence of pairwise-adjacent vertices, last
    adjacent to first)."""
    cycle = list(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not region.adjacent(a, b):
            raise StructuralError(f"cycle vertices {a} and {b} not adjacent")
    poly = [_planar_point(v) for v in cycle]
    on_cycle = region.mask_of(cycle)
    return region.mask_of(
        v
        for v, bit in zip(region.vertices, region.bits)
        if not bit & on_cycle and _strictly_inside(_planar_point(v), poly)
    )


# -- BFS-last ordering --------------------------------------------------------


def bfs_last_order(
    region: TriRegion, m: int, root: Vertex, first_child: Vertex | None = None
) -> list[Vertex]:
    """BFS visit order of bitboard m from root; children enqueue in
    ascending ordering index, except that first_child (a neighbor of root)
    enqueues first.  The last vertex has a connected neighborhood inside m
    of size below six."""
    bit_of = region.bit_of
    if not bit_of[root] & m:
        raise StructuralError("BFS root must lie in the set")
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        w = queue.popleft()
        nbrs = sorted(
            (u for u in region.neighbors(w) if bit_of[u] & m and u not in seen),
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
    if len(order) != m.bit_count():
        raise StructuralError("BFS set is not connected")
    return order


# -- cycle recombination ------------------------------------------------------


def cycle_recombine(
    p: Partition,
    cycle,
    x: Vertex,
    y: Vertex,
    keep: Vertex | None = None,
) -> Partition:
    """One recombination step rearranging the interior of `cycle`: the
    partition it reaches.

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
    masks = p.masks()
    bit_of = region.bit_of
    untouched = ({1, 2, 3} - {d_ring, d_x}).pop()
    interior = vertices_enclosed(region, cycle)
    if interior & masks[untouched - 1]:
        raise StructuralError("interior touches a third district")
    seeds = region.neighbors_mask(bit_of[y]) & interior & masks[d_x - 1]
    if not seeds:
        raise StructuralError("y has no inside neighbor in x's district")
    # grown from the seed of least ordering index
    inner = region.component(interior, seeds & -seeds)
    if not region.neighbors_mask(bit_of[x]) & inner:
        raise StructuralError("inner component must touch x")
    order = bfs_last_order(region, inner | bit_of[x], x, first_child=keep)
    m = (inner & masks[d_ring - 1]).bit_count()
    to_ring = region.mask_of(order[len(order) - m :]) if m else 0
    moves = []
    for v in region.vertices_of(inner):
        nd = d_ring if bit_of[v] & to_ring else d_x
        if nd != p.district(v):
            moves.append((v, nd))
    if not moves:
        raise StructuralError("cycle recombination must change the interior")
    return p.with_moves(moves)


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
    p: Partition, tower: list[Vertex], v_next: Vertex
) -> list[Partition]:
    """Resolve a tower bottom-up: flip the vertex past the bottom into the
    bottom's district, then each tower vertex into the district above it,
    ending with the second vertex joining the top's district.  Returns the
    partition after each flip.  Net effect: the top's district grows by one,
    v_next's original district shrinks by one."""
    cur = p
    states = []
    chain = tower + [v_next]
    for i in range(len(chain) - 1, 0, -1):
        v = chain[i]
        target = cur.district(chain[i - 1])
        cur = _checked_flip(cur, v, target)
        if cur is None:
            raise StructuralError(f"tower flip {v} -> {target} invalid")
        states.append(cur)
    return states


# -- unwinding ----------------------------------------------------------------


def unwind(
    p: Partition,
    s1: int,
    s2: int,
    protected: Vertex | None = None,
) -> tuple[list[Partition], str]:
    """Alternately shrink two non-adjacent arms, given as bitboards: s1
    inside district 1 (one above target) and s2 inside district 2 (at
    target), with district 3 one below target.  Each round flips one s1
    vertex out and one s2 vertex back; the first opportunity to feed
    district 3 ends in balance.  `protected`, if given, is an s2 vertex
    that is never reassigned.

    Returns (states, outcome): the partition after each flip, and outcome
    'balanced', 's1-exhausted' (all of s1 moved to district 2), or
    's2-exhausted' (all of s2 but the protected vertex moved to district 1);
    the latter two keep district 1 oversized and district 3 undersized."""
    cur = p
    states: list[Partition] = []
    region = p.region
    bit_of = region.bit_of
    masks = p.masks()
    protect = 0 if protected is None else bit_of[protected]
    if not s1 or not s2 & ~protect:
        raise StructuralError("unwinding needs nonempty reassignable arms")
    if s1 & ~masks[0] or s2 & ~masks[1]:
        raise StructuralError("arm districts do not match")
    if region.neighbors_mask(s1) & s2:
        raise StructuralError("unwinding arms must not be adjacent")
    # from here on s2 is the reassignable part of the arm
    s2 &= ~protect
    while True:
        v1, to1 = find_shrink_vertex(cur, s1, (3, 2))
        if to1 == 3:
            states.append(apply_flip(cur, v1, 3))
            return states, "balanced"
        v2, to2 = find_shrink_vertex(cur, s2, (3, 1))
        cur = apply_flip(cur, v1, 2)
        states.append(cur)
        s1 &= ~bit_of[v1]
        cur = _checked_flip(cur, v2, to2)
        if cur is None:
            raise StructuralError("arm flip invalidated by the paired flip")
        states.append(cur)
        if to2 == 3:
            return states, "balanced"
        s2 &= ~bit_of[v2]
        if not s1:
            return states, "s1-exhausted"
        if not s2:
            return states, "s2-exhausted"
