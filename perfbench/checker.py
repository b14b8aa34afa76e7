"""Route and state checker written apart from the program.

It imports nothing from ``trirecom``.  The region of side ``n`` is the
triangular array of vertices ``(col, row)`` with ``1 <= row <= col <= n``,
listed column by column (the order of a state file's ``labels``).  Two
vertices are adjacent when their offset is one of the six unit steps of the
triangular lattice.

A district is valid when it is nonempty, connected and has no hole.  The hole
test counts the cells of the district's induced sub-complex: vertices, edges
and unit triangles with all three corners inside.  For a connected district of
the planar triangular lattice, ``V - E + F == 1`` exactly when no cycle of the
district encloses a vertex outside it.
"""

from __future__ import annotations

from collections import deque

_STEPS = ((0, -1), (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1))


class CheckError(Exception):
    """A state or route that is not what the program claims it is."""


class Grid:
    """Adjacency and unit triangles of the region of side n, by vertex index."""

    def __init__(self, n: int):
        self.n = n
        coords = [(col, row) for col in range(1, n + 1) for row in range(1, col + 1)]
        index = {v: i for i, v in enumerate(coords)}
        self.size = len(coords)
        self.adj: list[tuple[int, ...]] = []
        for col, row in coords:
            self.adj.append(
                tuple(
                    index[(col + dc, row + dr)]
                    for dc, dr in _STEPS
                    if (col + dc, row + dr) in index
                )
            )
        # Every unit triangle once: (c, r), (c+1, r), (c+1, r+1) point one
        # way and (c, r), (c+1, r+1), (c, r+1) the other.
        tris = []
        for col, row in coords:
            for b, c in (((col + 1, row), (col + 1, row + 1)),
                         ((col + 1, row + 1), (col, row + 1))):
                if b in index and c in index:
                    tris.append((index[(col, row)], index[b], index[c]))
        self.triangles_at: list[list[tuple[int, int, int]]] = [[] for _ in coords]
        for t in tris:
            self.triangles_at[min(t)].append(t)

    def is_connected(self, members: frozenset[int] | set[int]) -> bool:
        start = next(iter(members))
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in self.adj[v]:
                if u in members and u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == len(members)

    def euler_characteristic(self, members: frozenset[int] | set[int]) -> int:
        edges = sum(1 for v in members for u in self.adj[v] if u > v and u in members)
        faces = sum(
            1
            for v in members
            for t in self.triangles_at[v]
            if t[1] in members and t[2] in members
        )
        return len(members) - edges + faces

    def district_ok(self, members: frozenset[int] | set[int]) -> bool:
        """Nonempty, connected and without a hole."""
        return (
            bool(members)
            and self.is_connected(members)
            and self.euler_characteristic(members) == 1
        )


def districts_of(labels) -> tuple[set[int], set[int], set[int]]:
    out: tuple[set[int], set[int], set[int]] = (set(), set(), set())
    for i, d in enumerate(labels):
        out[d - 1].add(i)
    return out


def state_error(grid: Grid, targets, labels) -> str | None:
    """Why `labels` is not a window state of (grid, targets), or None."""
    if len(labels) != grid.size:
        return f"{len(labels)} labels for {grid.size} vertices"
    if any(d not in (1, 2, 3) for d in labels):
        return "a label outside 1..3"
    for d, (members, k) in enumerate(zip(districts_of(labels), targets), start=1):
        if abs(len(members) - k) > 1:
            return f"district {d} has {len(members)} vertices, target {k}"
        if not grid.district_ok(members):
            return f"district {d} is empty, disconnected or has a hole"
    return None


def check_state(grid: Grid, targets, labels) -> None:
    reason = state_error(grid, targets, labels)
    if reason is not None:
        raise CheckError(reason)


def check_route(grid: Grid, targets, source, target, steps) -> None:
    """Check a route given as (untouched, after) pairs: it starts at `source`
    and ends at `target`, every state is a window state, and every step
    changes the state while keeping its untouched district exactly."""
    source, target = tuple(source), tuple(target)
    try:
        check_state(grid, targets, source)
    except CheckError as exc:
        raise CheckError(f"source: {exc}") from None
    cur = source
    for idx, (untouched, after) in enumerate(steps):
        after = tuple(after)
        if untouched not in (1, 2, 3):
            raise CheckError(f"step {idx}: untouched label {untouched!r}")
        if after == cur:
            raise CheckError(f"step {idx}: the state does not change")
        if len(after) == len(cur) and any(
            (a == untouched) != (b == untouched) for a, b in zip(cur, after)
        ):
            raise CheckError(f"step {idx}: district {untouched} is not untouched")
        try:
            check_state(grid, targets, after)
        except CheckError as exc:
            raise CheckError(f"step {idx}: {exc}") from None
        cur = after
    if cur != target:
        raise CheckError("the route does not end at the target")
