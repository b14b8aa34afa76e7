"""Partition representation and structural predicates: simple connectivity,
balance classification, district neighborhoods, tricolor triangles,
rebalance-case dispatch, and ground-state construction.

Validity runs on bitboards: each Partition caches one int mask per district,
with vertex (col, row) at bit col * (n + 2) + row, so a lattice step is a
constant shift and simple connectivity is a shift-and-mask flood fill plus
an Euler-characteristic count.  One private loop (_label_masks) turns a
label array into the three masks, for Partition.masks and for
pathfinder.verify_trace, which checks traces on bare masks.

The district masks are the only vertex sets a Partition holds; a caller
that needs a district, a component or a cut-off arm works on them (see
lattice.TriRegion.component).  States derived from an already constructed
partition go through one private constructor, Partition._derived, which
skips the label-length, label-range and target-sum checks the parent passed
and takes the masks and validity the caller knows: relabeled (its translate
table and target/mask picker are cached per permutation), permuted,
with_moves, oracle._partition, moves.apply_flip and the final state of
pathfinder.verify_trace.  with_moves checks the district of each move
itself, and with_labels goes through the checking constructor.  with_moves
and relabeled carry the parent's cached masks, updated by the moves or the
permutation, and apply_flip its masks, updated by the flipped bit.  The arc
test (at_most_one_arc) reads a vertex's 6-bit slot pattern out of one
district mask, tricolor faces come from shifted ANDs of the three masks,
and district adjacency and the rebalance-case dispatch AND one mask with
the neighbor shifts of another (lattice.TriRegion.neighbors_mask).

A Partition is immutable, so two answers are cached on it.  Its validity
(_valid: all three districts nonempty and simply connected, None while
unknown) is written by is_valid, which flood-fills the three masks, and by a
derivation only where the answer is proved: relabeled and permuted keep it
(a relabeling or lattice symmetry keeps every district's shape),
moves.apply_flip sets it from the local flip test on a valid parent, where
that test is exact, pathfinder._Builder.extend from flood fills of the two
districts a step changes from the builder's valid state, and enumeration
(oracle._partition) and verify_trace's final state set it to True, every
district having passed the flood fill.  ground_state sets it to True as well: each block is a run of
at least n vertices in column order, connected and enclosing nothing (see
ground_state).  The constructor, with_moves and with_labels leave it unknown.
classify caches the balance class, is its only writer, reads validity
through is_valid and so adds only the size window on a partition that
carries it; derived partitions start unclassified.  moves.flip_valid answers
by the local flip test on any partition known valid.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .lattice import ONE_ARC, TriRegion, Vertex

Targets = tuple[int, int, int]
DISTRICTS = (1, 2, 3)
_LABELS = frozenset(DISTRICTS)


class BalanceClass(enum.Enum):
    BALANCED = "balanced"
    NEARLY_BALANCED = "nearly_balanced"
    OUTSIDE_OMEGA = "outside_omega"


def _simply_connected_mask(m: int, w: int) -> bool:
    """Simple connectivity of a bitboard of column width w (see
    lattice.TriRegion.bit_of).  A shift-and-mask flood fill from the lowest
    bit decides connectivity; a connected set then encloses no foreign
    vertex iff its Euler characteristic V - E + F, counting lattice edges and
    unit triangles inside the set, equals 1."""
    if not m:
        return False
    w1 = w + 1
    reach = m & -m
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
            break
        reach = grown
    if reach != m:
        return False
    # bit x of each is set iff x's neighbor in that direction is in the set
    down, upper_right, lower_right = m >> 1, m >> w, m >> w1
    edges = (
        (m & down).bit_count()
        + (m & upper_right).bit_count()
        + (m & lower_right).bit_count()
    )
    faces = (m & upper_right & lower_right).bit_count() + (
        m & lower_right & down
    ).bit_count()
    return m.bit_count() - edges + faces == 1


def _label_masks(bits: tuple[int, ...], labels) -> tuple[int, int, int]:
    """The three district bitboards of a label array, given the region's
    vertex bits (lattice.TriRegion.bits).  Partition.masks and
    pathfinder.verify_trace share this loop."""
    masks = [0, 0, 0, 0]
    for bit, lab in zip(bits, labels):
        masks[lab] |= bit
    return masks[1], masks[2], masks[3]


#: For each relabeling, as (perm[1], perm[2], perm[3]): the translate table
#: of its labels and the picker that moves targets and masks to their new
#: districts (district perm[d] takes what district d held).
_RELABELINGS: dict[tuple[int, int, int], tuple] = {
    image: (
        bytes.maketrans(b"\1\2\3", bytes(image)),
        itemgetter(*(image.index(d) for d in DISTRICTS)),
    )
    for image in itertools.permutations(DISTRICTS)
}


class Partition:
    """An assignment of every region vertex to district 1, 2, or 3, with size
    targets.  Immutable; mutating operations return new values."""

    __slots__ = (
        "region", "targets", "labels", "_masks", "_hash", "_valid", "_class",
    )

    def __init__(self, region: TriRegion, targets: Targets, labels: tuple[int, ...]):
        if len(labels) != region.num_vertices:
            raise ValueError("label array length mismatch")
        if sum(targets) != region.num_vertices:
            raise ValueError("targets must sum to the vertex count")
        if not _LABELS.issuperset(labels):
            raise ValueError("labels must lie in 1..3")
        self.region = region
        self.targets = tuple(targets)
        self.labels = tuple(labels)
        self._masks: Optional[tuple[int, int, int]] = None
        self._hash: Optional[int] = None
        # is_valid's answer, None until known: written by is_valid, and by a
        # derivation only where it proves the answer (see the module doc)
        self._valid: Optional[bool] = None
        # written only by classify
        self._class: Optional[BalanceClass] = None

    @classmethod
    def _derived(
        cls,
        region: TriRegion,
        targets: Targets,
        labels: tuple[int, ...],
        masks: Optional[tuple[int, int, int]] = None,
        valid: Optional[bool] = None,
    ) -> "Partition":
        """A state derived from an already constructed partition: the label
        length, the label range and the target sum were checked on the
        parent, so they are not checked again, and the caller passes the
        masks and validity it already knows (see the module doc)."""
        q = cls.__new__(cls)
        q.region = region
        q.targets = targets
        q.labels = labels
        q._masks = masks
        q._hash = None
        q._valid = valid
        q._class = None
        return q

    def district(self, v: Vertex) -> int:
        return self.labels[self.region.index_of[v]]

    def masks(self) -> tuple[int, int, int]:
        """(P1, P2, P3) as bitboards (see lattice.TriRegion.bit_of)."""
        if self._masks is None:
            self._masks = _label_masks(self.region.bits, self.labels)
        return self._masks

    def sizes(self) -> tuple[int, int, int]:
        m1, m2, m3 = self.masks()
        return (m1.bit_count(), m2.bit_count(), m3.bit_count())

    def with_moves(self, moves: Iterable[tuple[Vertex, int]]) -> "Partition":
        """New partition with the given (vertex, new district) reassignments;
        a district outside 1..3 raises ValueError.  Cached masks are carried
        over, updated move by move."""
        region = self.region
        labels = list(self.labels)
        masks = None if self._masks is None else [0, *self._masks]
        for v, d in moves:
            if d not in _LABELS:
                raise ValueError("labels must lie in 1..3")
            i = region.index_of[v]
            if masks is not None:
                bit = region.bits[i]
                masks[labels[i]] ^= bit
                masks[d] |= bit
            labels[i] = d
        return Partition._derived(
            region,
            self.targets,
            tuple(labels),
            None if masks is None else (masks[1], masks[2], masks[3]),
        )

    def with_labels(self, labels: tuple[int, ...]) -> "Partition":
        """New partition with the given labels, checked by the constructor,
        same region and targets."""
        return Partition(self.region, self.targets, labels)

    def relabeled(self, perm: dict[int, int]) -> "Partition":
        """Apply a district relabeling: old label d becomes perm[d].  Targets
        and cached masks move with their districts, and known validity is
        kept."""
        table, pick = _RELABELINGS[perm[1], perm[2], perm[3]]
        return Partition._derived(
            self.region,
            pick(self.targets),
            tuple(bytes(self.labels).translate(table)),
            None if self._masks is None else pick(self._masks),
            self._valid,
        )

    def permuted(self, source: tuple[int, ...]) -> "Partition":
        """The image under a vertex permutation given by its source index
        array: vertex j of the image takes the label of vertex source[j]
        (see lattice.TriRegion.frame).  A lattice symmetry keeps validity,
        so a known answer is kept."""
        return Partition._derived(
            self.region,
            self.targets,
            tuple(map(self.labels.__getitem__, source)),
            None,
            self._valid,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.region is other.region
            and self.targets == other.targets
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.region.n, self.targets, self.labels))
        return self._hash

    def __repr__(self) -> str:
        return f"Partition(n={self.region.n}, sizes={self.sizes()})"


# -- predicates -------------------------------------------------------------


def is_valid(p: Partition) -> bool:
    """All three districts nonempty and simply connected.  Read from p when
    known; otherwise flood-filled and stored on p."""
    if p._valid is None:
        w = p.region.width
        p._valid = all(_simply_connected_mask(m, w) for m in p.masks())
    return p._valid


def in_window(p: Partition) -> bool:
    """Every district size within one of its target (validity not checked)."""
    m1, m2, m3 = p.masks()
    k1, k2, k3 = p.targets
    return (
        -1 <= m1.bit_count() - k1 <= 1
        and -1 <= m2.bit_count() - k2 <= 1
        and -1 <= m3.bit_count() - k3 <= 1
    )


def classify(p: Partition) -> BalanceClass:
    """Balance classification; OUTSIDE_OMEGA on any validity or size-window
    violation.  Computed on the first call and cached on p (a Partition is
    immutable); this is the only writer of that cache, which partitions
    derived from p do not inherit.  Validity is read through is_valid, so
    only the size window is new work on a partition that carries it."""
    if p._class is None:
        s1, s2, s3 = p.sizes()
        k1, k2, k3 = p.targets
        if not (
            -1 <= s1 - k1 <= 1 and -1 <= s2 - k2 <= 1 and -1 <= s3 - k3 <= 1
        ) or not is_valid(p):
            p._class = BalanceClass.OUTSIDE_OMEGA
        elif s1 == k1 and s2 == k2 and s3 == k3:
            p._class = BalanceClass.BALANCED
        else:
            p._class = BalanceClass.NEARLY_BALANCED
    return p._class


def in_omega(p: Partition) -> bool:
    return classify(p) is not BalanceClass.OUTSIDE_OMEGA


def at_most_one_arc(p: Partition, v: Vertex, d: int) -> bool:
    """True iff v's district-d neighbors form at most one contiguous arc of
    the 6-slot cycle (lattice.TriRegion.slot_pattern); true when v has no
    district-d neighbor."""
    return ONE_ARC[p.region.slot_pattern(p.masks()[d - 1], v)]


@dataclass(frozen=True)
class TricolorTriangle:
    """A lattice face whose three vertices lie in three districts.  Vertices
    are stored in clockwise face order; chirality is 'cw' when the district
    labels 1, 2, 3 appear clockwise around the face."""

    vertices: tuple[Vertex, Vertex, Vertex]
    chirality: str

    def vertex_in(self, p: Partition, d: int) -> Vertex:
        for v in self.vertices:
            if p.district(v) == d:
                return v
        raise ValueError(f"no vertex of district {d} on the face")


def tricolor_triangles(p: Partition) -> list[TricolorTriangle]:
    """The tricolor faces in region.faces order.  Each face is anchored at
    its first vertex a = (col, row): the right face (a, (col+1, row),
    (col+1, row+1)) and the down face (a, (col+1, row+1), (col, row+1)).
    One AND of three shifted masks per labelling of a face's vertices finds
    every anchor of faces with that labelling."""
    region = p.region
    w = region.width
    w1 = w + 1
    m = (None, *p.masks())
    right_cw = right_ccw = down_cw = down_ccw = 0
    # the even permutations read 1, 2, 3 clockwise around the face
    for x, y, z, even in (
        (1, 2, 3, True), (2, 3, 1, True), (3, 1, 2, True),
        (1, 3, 2, False), (3, 2, 1, False), (2, 1, 3, False),
    ):
        right = m[x] & m[y] >> w & m[z] >> w1
        down = m[x] & m[y] >> w1 & m[z] >> 1
        if even:
            right_cw |= right
            down_cw |= down
        else:
            right_ccw |= right
            down_ccw |= down
    out = []
    anchors = right_cw | right_ccw | down_cw | down_ccw
    while anchors:
        low = anchors & -anchors
        anchors ^= low
        col, row = a = region.vertex_at[low.bit_length() - 1]
        if low & (right_cw | right_ccw):
            out.append(TricolorTriangle(
                (a, (col + 1, row), (col + 1, row + 1)),
                "cw" if low & right_cw else "ccw",
            ))
        if low & (down_cw | down_ccw):
            out.append(TricolorTriangle(
                (a, (col + 1, row + 1), (col, row + 1)),
                "cw" if low & down_cw else "ccw",
            ))
    return out


def districts_adjacent(p: Partition, d1: int, d2: int) -> bool:
    masks = p.masks()
    return bool(p.region.neighbors_mask(masks[d1 - 1]) & masks[d2 - 1])


def case_dispatch(p: Partition) -> str:
    """Which rebalance case applies, for a valid partition whose district 1
    contains corner (1, 1): 'A' adjacent boundary pair of districts 2 and 3;
    'B' district 2 interior; 'C' district 3 interior; 'D' districts 2 and 3
    not adjacent.  Exactly one holds."""
    region = p.region
    _, m2, m3 = p.masks()
    p2b = m2 & region.boundary_mask
    p3b = m3 & region.boundary_mask
    case_a = bool(region.neighbors_mask(p2b) & p3b)
    case_b = not p2b
    case_c = not p3b
    case_d = not region.neighbors_mask(m2) & m3
    flags = [case_a, case_b, case_c, case_d]
    assert sum(flags) == 1, (
        f"case dispatch expects exactly one case, got {flags} for {p!r}"
    )
    return "ABCD"[flags.index(True)]


def ground_state(region: TriRegion, targets: Targets, perm: tuple[int, int, int]) -> Partition:
    """The block partition: the first k_{perm[0]} vertices in left-to-right,
    top-to-bottom order get district perm[0], the next block perm[1], the
    rest perm[2].  Requires every target >= n."""
    if sorted(perm) != [1, 2, 3]:
        raise ValueError(f"perm must be a permutation of (1, 2, 3), got {perm}")
    if any(k < region.n for k in targets):
        raise ValueError("ground states require every target >= n")
    labels = []
    for d in perm:
        labels.extend([d] * targets[d - 1])
    p = Partition(region, targets, tuple(labels))
    # Valid by construction.  A block is a run of at least n consecutive
    # vertices in column order: where it leaves column c at rows r..c, the
    # n or more vertices it holds reach row r of column c + 1, next to
    # (c, r), so it is connected.  Its complement is the run before it,
    # which starts at corner (1, 1), and the run after it, which ends at
    # corner (n, n); any such run is connected, so the block encloses
    # nothing.
    p._valid = True
    return p

