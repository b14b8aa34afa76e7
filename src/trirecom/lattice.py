"""Geometry of the triangular region: coordinates, cyclic neighborhoods,
boundary, columns, corners, vertex ordering, and straight-line stepping.

Vertices are (col, row) pairs with 1 <= row <= col <= n.  Column 1 is the
single leftmost vertex; column n is the vertical right edge.  Row 1 runs along
the top edge and row == col along the bottom edge.

Vertex sets are bitboards: vertex (col, row) is bit col * width + row of a
Python int, with width = n + 2, so the six lattice directions are the
constant shifts +-1, +-width and +-(width + 1) (see TriRegion.bit_of).
Reading a vertex's six neighbor slots out of a bitboard gives a 6-bit slot
pattern (bit i for slot i, see TriRegion.slot_pattern); ONE_ARC tells
whether the set slots form one contiguous arc of the cycle.  The region
keeps the bitboards of all its vertices (full_mask), of its boundary
(boundary_mask) and of each column prefix (cols_leq_mask); neighbors_mask
ORs the six shifts of a bitboard, and component and components grow
connected components by repeating those shifts.  Bit order is column-major,
the same as ordering_index order, so walking a bitboard lowest bit first
visits vertices in ascending ordering index.  The reflection and rotations
are cached as index permutations per (reflect, turns) (TriRegion.frame),
which move label arrays and bitboards without per-vertex geometry calls.
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
        self.corners: tuple[Vertex, Vertex, Vertex] = ((1, 1), (n, 1), (n, n))
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
        # (reflect, turns) -> (source, image) index arrays, see frame
        self._frames: dict[tuple[bool, int], tuple[tuple, tuple]] = {}
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
        self._index_at: dict[int, int] = {
            b.bit_length() - 1: i for i, b in enumerate(self.bits)
        }
        # the bit of each neighbor slot, 0 for an OUTSIDE slot
        self._slot_bits: dict[Vertex, tuple[int, ...]] = {
            v: tuple(0 if u is OUTSIDE else self.bit_of[u] for u in slots)
            for v, slots in self._slots.items()
        }
        # the bitboard of v's neighbors
        self._neighbor_mask: dict[Vertex, int] = {
            v: sum(bits) for v, bits in self._slot_bits.items()
        }
        full = self.mask_of(self.vertices)
        self.full_mask = full
        self.boundary_mask = self.mask_of(
            v for v, slots in self._slots.items() if OUTSIDE in slots
        )
        # column i's bits lie below bit (i + 1) * width
        self._cols_leq_masks: tuple[int, ...] = tuple(
            full & ((1 << ((i + 1) * self.width)) - 1) for i in range(n + 1)
        )

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

    def neighbors_mask(self, m: int) -> int:
        """The bitboard of the region vertices with a neighbor in bitboard m
        (m's own vertices only when a neighbor of theirs is in m too)."""
        w = self.width
        w1 = w + 1
        return (
            m << 1 | m >> 1 | m << w | m >> w | m << w1 | m >> w1
        ) & self.full_mask

    def component(self, m: int, seed_bit: int) -> int:
        """The connected component of bitboard m holding seed_bit, a bit of
        m, by a shift-and-mask fill."""
        w = self.width
        w1 = w + 1
        reach = seed_bit
        while True:
            grown = (
                reach
                | reach << 1
                | reach >> 1
                | reach << w
                | reach >> w
                | reach << w1
                | reach >> w1
            ) & m
            if grown == reach:
                return reach
            reach = grown

    def components(self, m: int):
        """Yield the connected components of bitboard m, each as a
        bitboard, lowest bit first: in ascending order of their least
        ordering index."""
        while m:
            comp = self.component(m, m & -m)
            yield comp
            m ^= comp

    def vertices_of(self, m: int) -> list[Vertex]:
        """The vertices of bitboard m in ascending ordering index."""
        vertex_at = self.vertex_at
        out = []
        while m:
            low = m & -m
            out.append(vertex_at[low.bit_length() - 1])
            m ^= low
        return out

    def frame(
        self, reflect: bool, turns: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The reflection (when `reflect`) followed by `turns` third-turn
        rotations, as index arrays (source, image): image[i] is the index of
        vertex i's image and source is its inverse, so the image of a label
        array is labels[source[j]] for each j.  Cached per (reflect,
        turns % 3)."""
        key = (bool(reflect), turns % 3)
        fr = self._frames.get(key)
        if fr is None:
            image = []
            for v in self.vertices:
                if reflect:
                    v = self.reflect(v)
                for _ in range(key[1]):
                    v = self.rotate(v)
                image.append(self.index_of[v])
            source = [0] * self.num_vertices
            for i, j in enumerate(image):
                source[j] = i
            fr = self._frames[key] = (tuple(source), tuple(image))
        return fr

    def map_mask(self, m: int, image: tuple[int, ...]) -> int:
        """The image of bitboard m under the vertex permutation `image` (see
        frame)."""
        bits, index_at = self.bits, self._index_at
        out = 0
        while m:
            low = m & -m
            out |= bits[image[index_at[low.bit_length() - 1]]]
            m ^= low
        return out

    def neighbors_cyclic(self, v: Vertex) -> tuple[Optional[Vertex], ...]:
        """The 6 neighbor slots of v in fixed clockwise order; out-of-region
        slots hold OUTSIDE."""
        return self._slots[v]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """In-region neighbors of v, in slot order."""
        return self._neighbors[v]

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        return v in self._neighbors[u]

    def cols_leq_mask(self, i: int) -> int:
        """The bitboard of columns 1..i, for i >= 0."""
        return self._cols_leq_masks[min(i, self.n)]

    def is_boundary(self, v: Vertex) -> bool:
        return bool(self.bit_of[v] & self.boundary_mask)

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
