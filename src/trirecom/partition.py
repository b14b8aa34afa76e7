"""Partition representation and structural predicates: simple connectivity,
balance classification, district neighborhoods, cut and exposed vertices,
tricolor triangles, rebalance-case dispatch, and ground-state construction.

Validity runs on bitboards: each Partition caches one int mask per district,
with vertex (col, row) at bit col * (n + 2) + row, so a lattice step is a
constant shift and simple connectivity is a shift-and-mask flood fill plus
an Euler-characteristic count.  One private loop (_label_masks) turns a
label array into the three masks, for Partition.masks and for
pathfinder.verify_trace, which checks traces on bare masks.

States derived from an already constructed partition go through one private
constructor, Partition._derived, which skips the label-length and target-sum
checks the parent passed and takes the masks, validity and district sets the
caller knows: relabeled (its translate table and target/mask/set picker are
cached per permutation), permuted, with_moves, with_labels (which keeps its
length check), oracle._partition, moves.apply_flip and the final state of
pathfinder.verify_trace.  with_moves and relabeled carry the parent's cached
masks and district sets, updated by the moves or the permutation, and
apply_flip its masks, updated by the flipped bit.  Neighborhood predicates
(cut vertex, exposed vertex, arc connectivity) read a vertex's 6-bit slot
pattern out of one district mask, tricolor faces come from shifted ANDs of
the three masks, and district adjacency and the rebalance-case dispatch AND
one mask with the neighbor shifts of another
(lattice.TriRegion.neighbors_mask).

A Partition is immutable, so two answers are cached on it.  Its validity
(_valid: all three districts nonempty and simply connected, None while
unknown) is written by is_valid, which flood-fills the three masks, and by a
derivation only where the answer is proved: relabeled and permuted keep it
(a relabeling or lattice symmetry keeps every district's shape),
moves.apply_flip sets it from the local flip test on a valid parent, where
that test is exact, moves.apply_recom from flood fills of the two districts
a step changes on a valid parent, and enumeration (oracle._partition) and
verify_trace's final state set it to True, every district having passed the
flood fill.  The constructor, with_moves and with_labels leave it unknown.
classify caches the balance class, is its only writer, reads validity
through is_valid and so adds only the size window on a partition that
carries it; derived partitions start unclassified.  moves.flip_valid answers
by the local flip test on any partition known valid.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .lattice import ONE_ARC, TriRegion, Vertex

Targets = tuple[int, int, int]
DISTRICTS = (1, 2, 3)


class BalanceClass(enum.Enum):
    BALANCED = "balanced"
    NEARLY_BALANCED = "nearly_balanced"
    OUTSIDE_OMEGA = "outside_omega"


def connected_components(
    region: TriRegion, vset: frozenset[Vertex] | set[Vertex]
) -> list[frozenset[Vertex]]:
    """Connected components of the subgraph induced by vset."""
    remaining = set(vset)
    comps = []
    while remaining:
        root = next(iter(remaining))
        seen = {root}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in region.neighbors(v):
                if u in remaining and u not in seen:
                    seen.add(u)
                    queue.append(u)
        comps.append(frozenset(seen))
        remaining -= seen
    return comps


def component_of(
    region: TriRegion, vset: Iterable[Vertex], v: Vertex
) -> frozenset[Vertex]:
    """The connected component of v inside vset (v must be in vset)."""
    vset = set(vset)
    assert v in vset
    seen = {v}
    queue = deque([v])
    while queue:
        w = queue.popleft()
        for u in region.neighbors(w):
            if u in vset and u not in seen:
                seen.add(u)
                queue.append(u)
    return frozenset(seen)


def is_connected(region: TriRegion, vset: Iterable[Vertex]) -> bool:
    vset = set(vset)
    if not vset:
        return False
    return len(component_of(region, vset, next(iter(vset)))) == len(vset)


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
#: of its labels and the picker that moves targets, masks and district sets
#: to their new districts (district perm[d] takes what district d held).
_RELABELINGS: dict[tuple[int, int, int], tuple] = {
    image: (
        bytes.maketrans(b"\1\2\3", bytes(image)),
        itemgetter(*(image.index(d) for d in DISTRICTS)),
    )
    for image in itertools.permutations(DISTRICTS)
}


def is_simply_connected(region: TriRegion, vset: Iterable[Vertex]) -> bool:
    """True iff vset is nonempty, connected, and encloses no complement
    vertex (every complement component reaches the region boundary)."""
    return _simply_connected_mask(region.mask_of(vset), region.width)


class Partition:
    """An assignment of every region vertex to district 1, 2, or 3, with size
    targets.  Immutable; mutating operations return new values."""

    __slots__ = (
        "region", "targets", "labels", "_districts", "_masks", "_hash",
        "_valid", "_class",
    )

    def __init__(self, region: TriRegion, targets: Targets, labels: tuple[int, ...]):
        if len(labels) != region.num_vertices:
            raise ValueError("label array length mismatch")
        if sum(targets) != region.num_vertices:
            raise ValueError("targets must sum to the vertex count")
        self.region = region
        self.targets = tuple(targets)
        self.labels = tuple(labels)
        self._districts: Optional[tuple[frozenset, ...]] = None
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
        districts: Optional[tuple[frozenset, ...]] = None,
    ) -> "Partition":
        """A state derived from an already constructed partition: the label
        length and the target sum were checked on the parent, so they are
        not checked again, and the caller passes the masks, validity and
        district sets it already knows (see the module doc)."""
        q = cls.__new__(cls)
        q.region = region
        q.targets = targets
        q.labels = labels
        q._districts = districts
        q._masks = masks
        q._hash = None
        q._valid = valid
        q._class = None
        return q

    def district(self, v: Vertex) -> int:
        return self.labels[self.region.index_of[v]]

    def districts(self) -> tuple[frozenset[Vertex], ...]:
        """(P1, P2, P3) as frozensets."""
        if self._districts is None:
            sets: tuple[set, set, set] = (set(), set(), set())
            for v, lab in zip(self.region.vertices, self.labels):
                sets[lab - 1].add(v)
            self._districts = tuple(frozenset(s) for s in sets)
        return self._districts

    def district_set(self, d: int) -> frozenset[Vertex]:
        return self.districts()[d - 1]

    def masks(self) -> tuple[int, int, int]:
        """(P1, P2, P3) as bitboards (see lattice.TriRegion.bit_of)."""
        if self._masks is None:
            self._masks = _label_masks(self.region.bits, self.labels)
        return self._masks

    def sizes(self) -> tuple[int, int, int]:
        m1, m2, m3 = self.masks()
        return (m1.bit_count(), m2.bit_count(), m3.bit_count())

    def with_moves(self, moves: Iterable[tuple[Vertex, int]]) -> "Partition":
        """New partition with the given (vertex, new district) reassignments.
        Cached masks and district sets are carried over, updated move by
        move."""
        region = self.region
        labels = list(self.labels)
        masks = None if self._masks is None else [0, *self._masks]
        sets = None if self._districts is None else [None, *self._districts]
        for v, d in moves:
            i = region.index_of[v]
            if masks is not None:
                bit = region.bits[i]
                masks[labels[i]] ^= bit
                masks[d] |= bit
            if sets is not None and d != labels[i]:
                sets[labels[i]] = sets[labels[i]] - {v}
                sets[d] = sets[d] | {v}
            labels[i] = d
        return Partition._derived(
            region,
            self.targets,
            tuple(labels),
            None if masks is None else (masks[1], masks[2], masks[3]),
            None,
            None if sets is None else (sets[1], sets[2], sets[3]),
        )

    def with_labels(self, labels: tuple[int, ...]) -> "Partition":
        """New partition with the given labels (length checked), same
        region and targets."""
        if len(labels) != self.region.num_vertices:
            raise ValueError("label array length mismatch")
        return Partition._derived(self.region, self.targets, tuple(labels))

    def relabeled(self, perm: dict[int, int]) -> "Partition":
        """Apply a district relabeling: old label d becomes perm[d].  Targets,
        cached masks and cached district sets move with their districts, and
        known validity is kept."""
        table, pick = _RELABELINGS[perm[1], perm[2], perm[3]]
        return Partition._derived(
            self.region,
            pick(self.targets),
            tuple(bytes(self.labels).translate(table)),
            None if self._masks is None else pick(self._masks),
            self._valid,
            None if self._districts is None else pick(self._districts),
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

    def reflected(self) -> "Partition":
        """The mirror image under the column-fixing reflection."""
        return self.permuted(self.region.frame(True, 0)[0])

    def rotated(self, turns: int = 1) -> "Partition":
        """The image under `turns` third-of-a-turn rotations."""
        return self.permuted(self.region.frame(False, turns)[0])

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
    return all(abs(sz - k) <= 1 for sz, k in zip(p.sizes(), p.targets))


def classify(p: Partition) -> BalanceClass:
    """Balance classification; OUTSIDE_OMEGA on any validity or size-window
    violation.  Computed on the first call and cached on p (a Partition is
    immutable); this is the only writer of that cache, which partitions
    derived from p do not inherit.  Validity is read through is_valid, so
    only the size window is new work on a partition that carries it."""
    if p._class is None:
        if not in_window(p) or not is_valid(p):
            p._class = BalanceClass.OUTSIDE_OMEGA
        elif p.sizes() == p.targets:
            p._class = BalanceClass.BALANCED
        else:
            p._class = BalanceClass.NEARLY_BALANCED
    return p._class


def in_omega(p: Partition) -> bool:
    return classify(p) is not BalanceClass.OUTSIDE_OMEGA


def _slots_in(p: Partition, v: Vertex, d: int) -> int:
    """The slot pattern of v's district-d neighbors (see
    lattice.TriRegion.slot_pattern)."""
    return p.region.slot_pattern(p.masks()[d - 1], v)


def at_most_one_arc(p: Partition, v: Vertex, d: int) -> bool:
    """True iff v's district-d neighbors form at most one contiguous arc of
    the 6-slot cycle; true when v has no district-d neighbor."""
    return ONE_ARC[_slots_in(p, v, d)]


def own_neighborhood_connected(p: Partition, v: Vertex) -> bool:
    return ONE_ARC[_slots_in(p, v, p.district(v))]


def is_cut_vertex(p: Partition, v: Vertex) -> bool:
    """True iff removing v disconnects its district, equivalently its
    own-district neighborhood is not one contiguous arc."""
    return not ONE_ARC[_slots_in(p, v, p.district(v))]


def exposed_vertices(p: Partition, d: int) -> frozenset[Vertex]:
    """Vertices of district d adjacent to a different district."""
    out = set()
    for v in p.district_set(d):
        for u in p.region.neighbors(v):
            if p.district(u) != d:
                out.add(v)
                break
    return frozenset(out)


def is_exposed(p: Partition, v: Vertex) -> bool:
    """True iff some neighbor of v lies in another district."""
    return _slots_in(p, v, p.district(v)) != p.region.region_pattern[v]


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
    return Partition(region, targets, tuple(labels))


def ground_states(region: TriRegion, targets: Targets) -> dict[tuple[int, int, int], Partition]:
    return {
        perm: ground_state(region, targets, perm)
        for perm in itertools.permutations((1, 2, 3))
    }
