"""Geometry of the triangular region: coordinates, cyclic neighborhoods,
boundary, columns, corners, vertex ordering, and straight-line stepping.

Vertices are (col, row) pairs with 1 <= row <= col <= n.  Column 1 is the
single leftmost vertex; column n is the vertical right edge.  Row 1 runs along
the top edge and row == col along the bottom edge.

Vertex sets also have a bitboard form: vertex (col, row) is bit
col * width + row of a Python int, with width = n + 2, so the six lattice
directions are the constant shifts +-1, +-width and +-(width + 1) (see
TriRegion.bit_of).  Reading a vertex's six neighbor slots out of a bitboard
gives a 6-bit slot pattern (bit i for slot i, see TriRegion.slot_pattern);
ONE_ARC tells whether the set slots form one contiguous arc of the cycle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

Vertex = tuple[int, int]

#: Marker for a neighbor slot that falls outside the region.
OUTSIDE = None

#: The six lattice directions in fixed clockwise order, as (dcol, drow)
#: offsets: up, upper-right, lower-right, down, lower-left, upper-left.
DIRECTIONS: tuple[tuple[int, int], ...] = (
    (0, -1),
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 0),
    (-1, -1),
)

N_DIRECTIONS = 6


def _runs(pattern: int) -> int:
    # maximal cyclic runs of set bits in a 6-bit slot pattern
    return sum(
        1
        for i in range(N_DIRECTIONS)
        if pattern >> i & 1 and not pattern >> (i - 1) % N_DIRECTIONS & 1
    )


#: ONE_ARC[pattern] for a 6-bit slot pattern: whether its set slots form at
#: most one contiguous arc of the slot cycle (the empty and the full pattern
#: included).
ONE_ARC: tuple[bool, ...] = tuple(_runs(pat) <= 1 for pat in range(64))


def ordering_index(v: Vertex) -> int:
    """Left-to-right, top-to-bottom position of v, 1-based."""
    col, row = v
    return col * (col - 1) // 2 + row


class TriRegion:
    """The triangular region of side n, immutable after construction."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"side length must be >= 3, got {n}")
        self.n = n
        self.num_vertices = n * (n + 1) // 2
        self.vertices: tuple[Vertex, ...] = tuple(
            (col, row) for col in range(1, n + 1) for row in range(1, col + 1)
        )
        self.vertex_set = frozenset(self.vertices)
        # ordering_index(v) == self.index_of[v] + 1 for the 0-based arrays
        self.index_of: dict[Vertex, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        self._slots: dict[Vertex, tuple[Optional[Vertex], ...]] = {}
        for v in self.vertices:
            col, row = v
            slots = []
            for dcol, drow in DIRECTIONS:
                u = (col + dcol, row + drow)
                slots.append(u if u in self.vertex_set else OUTSIDE)
            self._slots[v] = tuple(slots)
        self._neighbors: dict[Vertex, tuple[Vertex, ...]] = {
            v: tuple(u for u in self._slots[v] if u is not OUTSIDE)
            for v in self.vertices
        }
        self.boundary = frozenset(
            v for v in self.vertices if OUTSIDE in self._slots[v]
        )
        self.corners: tuple[Vertex, Vertex, Vertex] = ((1, 1), (n, 1), (n, n))
        self._columns: tuple[frozenset[Vertex], ...] = tuple(
            frozenset((col, row) for row in range(1, col + 1))
            for col in range(1, n + 1)
        )
        # _columns_leq[i] is columns 1..i
        prefix = [frozenset()]
        for column in self._columns:
            prefix.append(prefix[-1] | column)
        self._columns_leq: tuple[frozenset[Vertex], ...] = tuple(prefix)
        top = [(col, 1) for col in range(1, n + 1)]
        right = [(n, row) for row in range(2, n + 1)]
        bottom = [(col, col) for col in range(n - 1, 1, -1)]
        self._boundary_cycle: tuple[Vertex, ...] = tuple(top + right + bottom)
        cyc = self._boundary_cycle
        #: Unordered pairs of consecutive vertices of the boundary cycle.
        self.boundary_pairs: frozenset[frozenset[Vertex]] = frozenset(
            frozenset(pair) for pair in zip(cyc, cyc[1:] + cyc[:1])
        )
        self.faces: tuple[tuple[Vertex, Vertex, Vertex], ...] = self._build_faces()
        # index of the vertex each vertex's image comes from, under the
        # reflection and one rotation: image labels[i] = labels[source[i]]
        reflect_source = [0] * self.num_vertices
        rotate_source = [0] * self.num_vertices
        for i, v in enumerate(self.vertices):
            reflect_source[self.index_of[self.reflect(v)]] = i
            rotate_source[self.index_of[self.rotate(v)]] = i
        self.reflect_source: tuple[int, ...] = tuple(reflect_source)
        self.rotate_source: tuple[int, ...] = tuple(rotate_source)
        # Bitboard layout.  Row 0 and the rows below each column's last
        # vertex are padding, so a shift never wraps one column into the
        # next: AND-ing a shifted mask with a vertex set drops every
        # off-region bit.
        self.width = n + 2
        self.bits: tuple[int, ...] = tuple(
            1 << (col * self.width + row) for col, row in self.vertices
        )
        self.bit_of: dict[Vertex, int] = dict(zip(self.vertices, self.bits))
        self.vertex_at: dict[int, Vertex] = {
            b.bit_length() - 1: v for v, b in self.bit_of.items()
        }
        # the bit of each neighbor slot, 0 for an OUTSIDE slot
        self._slot_bits: dict[Vertex, tuple[int, ...]] = {
            v: tuple(0 if u is OUTSIDE else self.bit_of[u] for u in slots)
            for v, slots in self._slots.items()
        }
        full = self.mask_of(self.vertices)
        #: The slot pattern of each vertex's in-region neighbors.
        self.region_pattern: dict[Vertex, int] = {
            v: self.slot_pattern(full, v) for v in self.vertices
        }

    def _build_faces(self) -> tuple[tuple[Vertex, Vertex, Vertex], ...]:
        # Each face is listed with its vertices in clockwise order.
        faces = []
        for col, row in self.vertices:
            a = (col, row)
            right = (col + 1, row)
            downright = (col + 1, row + 1)
            down = (col, row + 1)
            if right in self.vertex_set and downright in self.vertex_set:
                faces.append((a, right, downright))
            if down in self.vertex_set and downright in self.vertex_set:
                faces.append((a, downright, down))
        return tuple(faces)

    # -- basic queries -----------------------------------------------------

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertex_set

    def mask_of(self, vset) -> int:
        """The bitboard of a set of region vertices."""
        bit_of = self.bit_of
        m = 0
        for v in vset:
            m |= bit_of[v]
        return m

    def slot_pattern(self, m: int, v: Vertex) -> int:
        """The 6-bit pattern of v's neighbor slots inside bitboard m: bit i
        is set iff slot i (clockwise from up) holds a vertex of m."""
        s0, s1, s2, s3, s4, s5 = self._slot_bits[v]
        return (
            (m & s0 and 1)
            | (m & s1 and 2)
            | (m & s2 and 4)
            | (m & s3 and 8)
            | (m & s4 and 16)
            | (m & s5 and 32)
        )

    def neighbors_cyclic(self, v: Vertex) -> tuple[Optional[Vertex], ...]:
        """The 6 neighbor slots of v in fixed clockwise order; out-of-region
        slots hold OUTSIDE."""
        return self._slots[v]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """In-region neighbors of v, in slot order."""
        return self._neighbors[v]

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        return v in self._neighbors[u]

    def column(self, i: int) -> frozenset[Vertex]:
        """Vertices of the i-th column, 1-based."""
        return self._columns[i - 1]

    def columns_leq(self, i: int) -> frozenset[Vertex]:
        """Vertices of columns 1..i, for i >= 0."""
        return self._columns_leq[min(i, self.n)]

    def is_boundary(self, v: Vertex) -> bool:
        return v in self.boundary

    def line_step(self, v: Vertex, d: int) -> Optional[Vertex]:
        """Step one unit from v in direction d (slot index); OUTSIDE when the
        result leaves the region."""
        dcol, drow = DIRECTIONS[d]
        u = (v[0] + dcol, v[1] + drow)
        return u if u in self.vertex_set else OUTSIDE

    def direction_of(self, u: Vertex, v: Vertex) -> int:
        """The direction index d with line_step(u, d) == v; u, v adjacent."""
        dcol, drow = v[0] - u[0], v[1] - u[1]
        return DIRECTIONS.index((dcol, drow))

    def common_neighbors(self, u: Vertex, v: Vertex) -> tuple[Vertex, ...]:
        """In-region common neighbors of two adjacent vertices (at most 2)."""
        return tuple(w for w in self._neighbors[u] if w in self._neighbors[v])

    def reflect(self, v: Vertex) -> Vertex:
        """Mirror symmetry fixing every column: (col, row) -> (col, col-row+1).

        Swaps the top and bottom edges and reverses slot orientation.
        """
        col, row = v
        return (col, col - row + 1)

    def rotate(self, v: Vertex) -> Vertex:
        """Rotation by one third of a turn: (col, row) ->
        (n-row+1, col-row+1).  Cycles the corners (1,1) -> (n,1) -> (n,n)
        and shifts every neighbor slot by two positions, preserving
        orientation.
        """
        col, row = v
        return (self.n - row + 1, col - row + 1)

    def boundary_cycle(self) -> tuple[Vertex, ...]:
        """The boundary vertices as one cyclic walk, clockwise from (1, 1):
        top edge, then right edge, then bottom edge."""
        return self._boundary_cycle

    # -- drawing geometry ---------------------------------------------------

    def position(self, v: Vertex) -> tuple[float, float]:
        """Planar position (x right, y down) realizing the unit lattice."""
        col, row = v
        return (col * 0.8660254037844386, row - col / 2.0)

    def __repr__(self) -> str:
        return f"TriRegion(n={self.n})"


@lru_cache(maxsize=None)
def build_region(n: int) -> TriRegion:
    """Region of side n; rejects n < 3.  Cached: regions are immutable."""
    return TriRegion(n)
