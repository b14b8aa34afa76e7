"""Constructive path engine.

Drives any state of the +/-1 window state space to a canonical block state by
sweeping district 1 column by column into the left of the region, repairing
the one-vertex imbalance each advance creates through a case analysis on how
districts 2 and 3 meet the boundary, and finally shuffling districts 2 and 3
into block position.  Two such routes are joined through the block states.

Each step is validated once, when it is emitted, in the frame of the
procedure that made it, then recorded in root labels.  The builder's
partition is always a valid state and carries that answer (see partition):
a flip is applied by moves.apply_flip, which stores the local neighborhood
test's exact answer on the flipped state, so the builder reads it and checks
only the new state's size window; multi-vertex steps go through apply_recom,
which flood-fills the two districts a step changes.  Frames keep the answer,
since relabeled and permuted carry it.  Candidate scans and flip guards on
the builder's state use the local test too, and so does moves.flip_valid on
the flip trial of a speculative state in _interior_valid and inside
toolkit's tower construction: each of those states comes from the
builder's by apply_flip and so is known valid or known invalid, and
flip_valid recomputes both districts on any state not known valid.  Frames,
flips and steps derive their partitions through partition's private
constructor for derived states, which skips the checks the parent passed;
path reverses its second half from label tuples alone.

verify_trace re-checks every returned route from labels alone, on bare
bitboards: each state becomes three district masks, its size window is read
from their popcounts and its simple connectivity from the flood-fill kernel,
memoized by mask for the length of one call.  The kernel is a pure function
of the mask, so a memo hit is exactly the flood fill's answer; a step's
untouched district is the previous state's mask and always hits.  It never
reads a validity or class carried by its caller's partitions, and builds a
Partition only for its report's final state.  The engine never searches the
state
space: when a structural expectation of a branch fails, a PathError naming
the branch is raised instead.  Sub-cases that no sampled state reached were
deleted; their call sites raise such a PathError naming the deleted sub-case
(the README's case map lists them).

The builder's per-repair bookkeeping runs on the district bitboards
(Partition.masks): the removable-vertex scan walks the exposed vertices of a
candidate mask lowest bit first (toolkit.shrink_flips), the first open
column is the column of the lowest bit outside district 1, the frozen
vertices are one mask, and a frame's reflection and rotations come from the
region's cached index permutations (TriRegion.frame), which carry the label
arrays, the vertex map and the frozen mask into the frame.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from .lattice import OUTSIDE, TriRegion, Vertex, ordering_index
from .moves import (
    RecomStep,
    apply_flip,
    apply_recom,
    flip_valid,
    neighborhood_flip_test,
    reverse,
    untouched_of_flip,
)
from .partition import (
    BalanceClass,
    Partition,
    Targets,
    _label_masks,
    _simply_connected_mask,
    at_most_one_arc,
    case_dispatch,
    classify,
    component_of,
    connected_components,
    districts_adjacent,
    ground_state,
    in_omega,
    in_window,
    is_valid,
    tricolor_triangles,
)
from .toolkit import (
    NoShrinkVertex,
    StructuralError,
    build_tower,
    cycle_recombine,
    execute_tower,
    find_shrink_vertex,
    path_within,
    shrink_flips,
    unwind,
    vertices_enclosed,
)

#: The constructive procedures assume districts can host a full column.
MIN_SIDE = 5

#: Role map exchanging districts 2 and 3.
_SWAP_23 = {1: 1, 2: 3, 3: 2}


#: The translate table taking a builder's local labels to root labels, per
#: dmap; None for the identity.
_DMAP_TABLES: dict[tuple[int, ...], bytes | None] = {
    (0, *perm): None if perm == (1, 2, 3) else bytes.maketrans(b"\1\2\3", bytes(perm))
    for perm in itertools.permutations((1, 2, 3))
}


class PathError(Exception):
    """A constructive procedure met a configuration outside the branch it
    implements; `branch` names the procedure and sub-case."""

    def __init__(self, branch: str, message: str = ""):
        self.branch = branch
        super().__init__(f"{branch}: {message}" if message else branch)


@dataclass
class Trace:
    """An ordered route from a source assignment through window states."""

    source: tuple[int, ...]
    steps: list[RecomStep] = field(default_factory=list)
    verified: bool = False

    @property
    def annotations(self) -> list[str]:
        return [s.note for s in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


# -- step accumulation --------------------------------------------------------


class _Builder:
    """A working partition in a local coordinate frame plus the step list it
    shares with every builder nested under the same root.

    The frame is the district relabeling, column-fixing reflection and
    third-turn rotation taking the root partition to the local one: `vmap`
    gives, for each root vertex index, the local index of its image (None for
    the identity) and `dmap` sends each local district to its root district.
    `frozen` is the bitboard of the local vertices no step may reassign.
    Each step is validated once, against the window and the frozen mask,
    when it is emitted, and recorded in root labels."""

    __slots__ = ("p", "steps", "frozen", "vmap", "dmap", "_gather", "_translate")

    def __init__(
        self, p: Partition, frozen: int = 0, steps=None, vmap=None,
        dmap=(0, 1, 2, 3),
    ):
        self.p = p
        self.steps: list[RecomStep] = [] if steps is None else steps
        self.frozen = frozen
        self.vmap = vmap
        self.dmap = dmap
        # local labels -> root labels: gather through vmap, translate by dmap
        self._gather = None if vmap is None else itemgetter(*vmap)
        self._translate = _DMAP_TABLES[dmap]

    def _record(self, q: Partition, untouched: int, note: str) -> None:
        labels = q.labels
        if self._gather is not None:
            labels = self._gather(labels)
        if self._translate is not None:
            labels = tuple(bytes(labels).translate(self._translate))
        self.steps.append(RecomStep(self.dmap[untouched], labels, note))
        self.p = q

    def flip(self, v: Vertex, to: int, note: str) -> None:
        # self.p is known valid, so apply_flip stores the local test's exact
        # answer on the flipped state and only its size window is new work
        if self.p.region.bit_of[v] & self.frozen:
            raise PathError(note, f"flip would reassign frozen vertex {v}")
        frm = self.p.district(v)
        q = apply_flip(self.p, v, to)
        if frm == to or not is_valid(q):
            raise PathError(note, f"flip {v} -> {to} is not valid")
        if not in_window(q):
            raise PathError(note, f"flip {v} -> {to} leaves the window")
        self._record(q, untouched_of_flip(frm, to), note)

    def extend(self, steps) -> None:
        for step in steps:
            q = apply_recom(self.p, step)
            moved = 0
            for a, b in zip(q.masks(), self.p.masks()):
                moved |= (a ^ b) & self.frozen
            if moved:
                v = q.region.vertex_at[(moved & -moved).bit_length() - 1]
                raise PathError(step.note, f"step reassigns frozen vertex {v}")
            self._record(q, step.untouched, step.note)

    def balanced(self) -> bool:
        return self.p.sizes() == self.p.targets

    def run(
        self, func, *args, roles=None, reflect=False, turns=0, frozen=0
    ):
        """Run func on a sub-builder whose frame is this one composed with the
        district relabeling `roles` (concrete d -> role roles[d]), then the
        reflection, then `turns` third-turn rotations.  The sub-builder
        appends to the same step list and freezes this builder's frozen mask
        (mapped) plus the bitboard `frozen` (in its own coordinates);
        afterwards this builder's partition is pulled back from the
        sub-builder's."""
        start, vmap, dmap, mapped = self.p, self.vmap, self.dmap, self.frozen
        if roles is not None:
            start = start.relabeled(roles)
            inv = {r: d for d, r in roles.items()}
            dmap = (0,) + tuple(dmap[inv[r]] for r in (1, 2, 3))
        geometry = reflect or turns % 3
        if geometry:
            region = start.region
            source, image = region.frame(reflect, turns)
            start = start.permuted(source)
            vmap = image if vmap is None else tuple(map(image.__getitem__, vmap))
            mapped = region.map_mask(mapped, image)
        sub = _Builder(start, mapped | frozen, self.steps, vmap, dmap)
        out = func(sub, *args)
        if sub.p is not start:
            q = sub.p.permuted(image) if geometry else sub.p
            self.p = q if roles is None else q.relabeled(inv)
        return out

    def attempt(self, func, *args):
        """Run func on this builder; on a structural failure drop its steps,
        restore the partition and return the error (None on success)."""
        p, mark = self.p, len(self.steps)
        try:
            func(self, *args)
        except (PathError, StructuralError) as exc:
            del self.steps[mark:]
            self.p = p
            return exc
        return None


def _first_success(b: _Builder, func, candidates) -> None:
    """Run func(b, *cand) for each candidate until one succeeds; raise the
    first candidate's error when all fail."""
    first_err = None
    for cand in candidates:
        err = b.attempt(func, *cand)
        if err is None:
            return
        if first_err is None:
            first_err = err
    raise first_err


def _mirror_retry(b: _Builder, func, *args) -> None:
    """Run func; on a structural failure retry on the mirror image, keeping
    the first error if both orientations fail."""
    first = b.attempt(func, *args)
    if first is not None and b.run(
        lambda sub: sub.attempt(func, *args), reflect=True
    ):
        raise first


# -- small structural helpers ---------------------------------------------------


def _cyclic_blocks(region: TriRegion, v: Vertex, member) -> list[list[Vertex]]:
    """Maximal cyclic runs of neighbor slots of v satisfying `member`, one
    block per connected component of the matching neighbors."""
    slots = region.neighbors_cyclic(v)
    hits = [u is not OUTSIDE and member(u) for u in slots]
    if all(hits):
        return [list(slots)]
    start = next(k for k in range(6) if not hits[k])
    blocks: list[list[Vertex]] = []
    cur: list[Vertex] = []
    for off in range(1, 7):
        k = (start + off) % 6
        if hits[k]:
            cur.append(slots[k])
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    return blocks


def _district_blocks(p: Partition, v: Vertex, d: int) -> list[list[Vertex]]:
    return _cyclic_blocks(p.region, v, lambda u: p.district(u) == d)


def _other_common(region: TriRegion, u: Vertex, v: Vertex, not_this: Vertex) -> Vertex:
    """The common neighbor of u and v that is not `not_this`."""
    rest = [w for w in region.common_neighbors(u, v) if w != not_this]
    if len(rest) != 1:
        raise PathError(
            "labeling", f"{u} and {v} lack a unique common neighbor besides {not_this}"
        )
    return rest[0]


def _sole_common(region: TriRegion, u: Vertex, v: Vertex) -> Vertex:
    common = region.common_neighbors(u, v)
    if len(common) != 1:
        raise PathError("labeling", f"{u} and {v} have {len(common)} common neighbors")
    return common[0]


def _removables(p: Partition, cands: int) -> list[tuple[Vertex, int]]:
    """(vertex, target) for the removable vertices of the candidate bitboard
    in ascending ordering index: exposed non-cut vertices with a valid flip
    to district 3 (preferred per vertex) or district 2."""
    return list(shrink_flips(p, cands, (3, 2)))


def _beyond(p: Partition, i: int) -> int:
    """The bitboard of district-1 vertices beyond column i."""
    return p.masks()[0] & ~p.region.cols_leq_mask(i)


def _release_or_pick(b: _Builder, i: int, note: str):
    """Flip a beyond-column district-1 vertex straight into district 3 when
    possible (returns None, leaving the partition balanced); otherwise return
    the first such vertex that can move to district 2."""
    first = None
    for v, to in shrink_flips(b.p, _beyond(b.p, i), (3, 2)):
        if to == 3:
            b.flip(v, 3, "release")
            return None
        if first is None:
            first = v
    if first is None:
        raise PathError(note, "no removable district-1 vertex beyond the column")
    return first


def _hex_distance(u: Vertex, v: Vertex) -> int:
    """Graph distance in the unbounded lattice."""
    dc, dr = v[0] - u[0], v[1] - u[1]
    if (dc >= 0) == (dr >= 0):
        return max(abs(dc), abs(dr))
    return abs(dc) + abs(dr)


def _p1_distances(p: Partition) -> dict[Vertex, int]:
    """BFS distance from the anchor corner within district 1."""
    root = (1, 1)
    dist = {root: 0}
    queue = deque([root])
    s1 = p.district_set(1)
    while queue:
        w = queue.popleft()
        for u in p.region.neighbors(w):
            if u in s1 and u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    return dist


# -- enclosed-pocket shortcuts --------------------------------------------------


def _pocket_vertex(p: Partition, x: Vertex, j: int, note: str) -> Vertex:
    """A district-j vertex, flippable to district 3, enclosed by a district-3
    detour around x (whose 3-neighborhood is disconnected)."""
    region = p.region
    ell = ({1, 2} - {j}).pop()
    blocks = _district_blocks(p, x, 3)
    if len(blocks) < 2:
        raise PathError(note, "3-neighborhood of the pivot is connected")
    found = None
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            q = path_within(
                region, p.district_set(3), blocks[bi][0], blocks[bj][0]
            )
            interior = vertices_enclosed(region, [x] + q)
            pocket = {v for v in interior if p.district(v) == j}
            if pocket:
                found = (interior, pocket)
                break
        if found:
            break
    if found is None:
        raise PathError(note, "no enclosed pocket")
    interior, pocket = found
    if any(p.district(v) == ell for v in interior):
        raise PathError(note, "third district enters the pocket")
    v, _ = find_shrink_vertex(p, pocket, (3,))
    return v


def _p2_pocket(b: _Builder, i: int, x: Vertex) -> None:
    """x is a district-2 vertex with a disconnected 3-neighborhood; reach
    balance in at most two flips."""
    v = _release_or_pick(b, i, "enclosed-pocket")
    if v is None:
        return
    vp = _pocket_vertex(b.p, x, 2, "enclosed-pocket")
    b.flip(v, 2, "enclosed-pocket")
    b.flip(vp, 3, "enclosed-pocket")


def _p1_pocket(b: _Builder, i: int, x: Vertex) -> None:
    """x is a district-1 vertex with a disconnected 3-neighborhood and some
    district-2 vertex lies outside the detour; one flip balances."""
    vp = _pocket_vertex(b.p, x, 1, "enclosed-pocket")
    b.flip(vp, 3, "enclosed-pocket")


def _p1_pocket_bdry(b: _Builder, i: int, x: Vertex) -> None:
    if not (b.p.district_set(2) & b.p.region.boundary):
        raise PathError("enclosed-pocket", "district 2 misses the boundary")
    _p1_pocket(b, i, x)


# -- column advance --------------------------------------------------------------


def _advance_column(b: _Builder, i: int) -> None:
    """Move one more column-i vertex into district 1; ends balanced or with
    district 1 one vertex oversized.  Columns < i stay in district 1."""
    p = b.p
    region = p.region
    col = region.vertices[i * (i - 1) // 2 : i * (i + 1) // 2]
    pair = None
    for r in range(len(col) - 1):
        w, v = col[r], col[r + 1]
        if p.district(w) == 1 and p.district(v) != 1:
            pair = (w, v)
            break
    if pair is None:
        if not any(p.district(u) == 1 for u in col) or all(
            p.district(u) == 1 for u in col
        ):
            raise PathError("column-advance", "column has no mixed pair")
        b.run(_advance_column, i, reflect=True)
        return
    w, v = pair
    if p.district(v) == 3:
        b.run(_advance_pair, i, w, v, roles=_SWAP_23)
    else:
        _advance_pair(b, i, w, v)


def _advance_pair(b: _Builder, i: int, w: Vertex, v: Vertex) -> None:
    """w in district 1 directly above v in district 2, both in column i."""
    p = b.p
    region = p.region
    if region.is_boundary(v):
        if neighborhood_flip_test(p, v, 1):
            b.flip(v, 1, "column-advance")
            return
        x, y = (i + 1, i + 1), (i + 1, i)
        if p.district(x) != 1 or p.district(y) != 2:
            raise PathError(
                "column-advance/boundary",
                f"expected blocked configuration at {x}, {y}",
            )
        b.flip(x, 2, "column-advance")
        b.flip(v, 1, "column-advance")
        return
    if neighborhood_flip_test(p, v, 1):
        b.flip(v, 1, "column-advance")
        return
    x = (i - 1, v[1] - 1)
    if p.district(x) != 1:
        raise PathError("column-advance/tower", f"tower top {x} not in district 1")
    tower, v_next = build_tower(p, x, v)
    _, steps = execute_tower(p, tower, v_next, note="tower")
    b.extend(steps)


# -- rebalancing: dispatch --------------------------------------------------------


def _rebalance_std(b: _Builder, i: int) -> None:
    """Standard form: district 1 oversized by one and holding columns < i,
    district 3 short by one.  Ends balanced without touching district-1
    vertices in columns <= i."""
    p = b.p
    k1, k2, k3 = p.targets
    if p.sizes() != (k1 + 1, k2, k3 - 1):
        raise PathError("rebalance", f"sizes {p.sizes()} not in standard form")
    if p.region.cols_leq_mask(i - 1) & ~p.masks()[0]:
        raise PathError("rebalance", "left columns not in district 1")
    if not _beyond(p, i):
        raise PathError("rebalance", "no district-1 vertex beyond the column")
    case = case_dispatch(p)
    func = {"A": _case_a, "B": _case_b, "C": _case_c, "D": _case_d}[case]
    _mirror_retry(b, func, i)
    if not b.balanced():
        raise PathError("rebalance", "case procedure ended unbalanced")


def _rebalance_roles(b: _Builder, i: int) -> None:
    """Map the deficit district to role 3 and run the standard rebalance with
    district-1 columns <= i frozen."""
    sizes, targets = b.p.sizes(), b.p.targets
    if sizes[0] != targets[0] + 1:
        raise PathError("rebalance", "district 1 is not the oversized district")
    deficit = next(
        (d for d in (2, 3) if sizes[d - 1] == targets[d - 1] - 1), None
    )
    if deficit is None:
        raise PathError("rebalance", "no deficit district")
    if deficit == 2:
        b.run(_rebalance_frozen, i, roles=_SWAP_23)
    else:
        _rebalance_frozen(b, i)


def _rebalance_frozen(b: _Builder, i: int) -> None:
    """The standard rebalance with district-1 columns <= i frozen."""
    frozen = b.p.masks()[0] & b.p.region.cols_leq_mask(i)
    b.run(_rebalance_std, i, frozen=frozen)


# -- Case A: districts 2 and 3 touch along the boundary ----------------------------


def _case_a(b: _Builder, i: int) -> None:
    p = b.p
    region = p.region
    consecutive = region.boundary_pairs
    _, m2, m3 = p.masks()
    bd = region.boundary_mask
    b3 = m3 & bd
    bit_of = region.bit_of
    cand = []
    # boundary district-2 vertices with a boundary district-3 neighbor
    for a in region.vertices_of(m2 & bd & region.neighbors_mask(b3)):
        for w in region.neighbors(a):
            if bit_of[w] & b3:
                cand.append((a, w))
    cand.sort(
        key=lambda pr: (frozenset(pr) not in consecutive, ordering_index(pr[0]))
    )
    if not cand:
        raise PathError("boundary-pair", "no adjacent boundary pair")
    _first_success(b, _case_a_pair, [(i, a, bb) for a, bb in cand])


def _case_a_pair(b: _Builder, i: int, a: Vertex, bb: Vertex) -> None:
    p = b.p
    if not at_most_one_arc(p, a, 3):
        _p2_pocket(b, i, a)
        return
    if at_most_one_arc(p, a, 2):
        _case_a_valid(b, i, a, bb)
    else:
        _case_a_invalid(b, i, a, bb)


def _case_a_labels(p: Partition, a: Vertex, bb: Vertex):
    """The arc of N(a) inside the region starting at the common neighbor with
    bb: (c, d, e) with e back on the boundary."""
    region = p.region
    c = _sole_common(region, a, bb)
    d = _other_common(region, a, c, bb)
    e = _other_common(region, a, d, c)
    if not region.is_boundary(e):
        raise PathError("boundary-pair", f"arc end {e} not on the boundary")
    return c, d, e


def _case_a_valid(b: _Builder, i: int, a: Vertex, bb: Vertex) -> None:
    """a's 2- and 3-neighborhoods are both connected."""
    note = "boundary-pair"
    v = _release_or_pick(b, i, note)
    if v is None:
        return
    p = b.p
    region = p.region
    if not region.adjacent(v, a):
        b.flip(v, 2, note)
        b.flip(a, 3, note)
        return
    comp = next(
        blk for blk in _district_blocks(p, a, 1) if v in blk
    )
    if len(comp) == 1:
        b.flip(v, 2, note)
        b.flip(a, 3, note)
        return
    w_set = set(comp)
    rest = p.district_set(1) - w_set
    comps = connected_components(region, rest)
    if len(comps) >= 2:
        away = [s for s in comps if (1, 1) not in s]
        s = min(away, key=lambda s: min(ordering_index(t) for t in s))
        vp, to = find_shrink_vertex(p, s, (3, 2))
        if to == 3:
            b.flip(vp, 3, note)
            return
        b.flip(vp, 2, note)
        b.flip(a, 3, note)
        return
    c, d, e = _case_a_labels(p, a, bb)
    if w_set == {c, d}:
        if v != c:
            b.flip(v, 2, note)
            b.flip(a, 3, note)
            return
        if at_most_one_arc(p, c, 3):
            b.flip(c, 3, note)
            return
        _p1_pocket_bdry(b, i, c)
        return
    if w_set == {d, e}:
        if v != e:
            b.flip(v, 2, note)
            b.flip(a, 3, note)
            return
        if neighborhood_flip_test(p, d, 3):
            b.flip(d, 3, note)
            return
        b.flip(d, 2, note)
        b.flip(a, 3, note)
        return
    raise PathError("boundary-pair/size-2", f"unexpected component {sorted(w_set)}")


def _case_a_invalid(b: _Builder, i: int, a: Vertex, bb: Vertex) -> None:
    """a's 3-neighborhood is connected but its 2-neighborhood is not."""
    note = "boundary-pair"
    v = _release_or_pick(b, i, note)
    if v is None:
        return
    p = b.p
    region = p.region
    c, d, e = _case_a_labels(p, a, bb)
    if p.district(c) != 2 or p.district(e) != 2 or p.district(d) != 1:
        raise PathError(
            "boundary-pair/2-discon", "forced arc labeling absent"
        )
    if neighborhood_flip_test(p, d, 2):
        b.flip(d, 2, note)
        b.flip(a, 3, note)
        return
    f = _other_common(region, d, c, a)
    g = _other_common(region, d, f, c)
    h = _other_common(region, d, g, f)
    if not at_most_one_arc(p, d, 2):
        if p.district(g) != 2 or p.district(h) == 3:
            raise PathError("boundary-pair/d2-discon", "forced labels absent")
        if p.district(f) == 3:
            b.flip(d, 3, note)
            return
        if p.district(f) != 1 or p.district(h) != 1:
            raise PathError("boundary-pair/d2-discon", "forced labels absent")
        p2_minus_c = p.district_set(2) - {c}
        if a in p2_minus_c and g in p2_minus_c and a in component_of(
            region, p2_minus_c, g
        ):
            s1 = component_of(region, p.district_set(1) - {d}, h)
            s2 = component_of(region, p.district_set(2) - {a}, c)
        else:
            s1 = component_of(region, p.district_set(1) - {d}, f)
            s2 = component_of(region, p.district_set(2) - {a}, e)
    else:
        if p.district(g) != 3 or p.district(f) != 1 or p.district(h) != 1:
            raise PathError("boundary-pair/d1-discon", "forced labels absent")
        s1 = component_of(region, p.district_set(1) - {d}, f)
        s2 = component_of(region, p.district_set(2) - {a}, e)
    q, steps, outcome = unwind(b.p, s1, s2, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        b.flip(d, 2, note)
        b.flip(a, 3, note)
        return
    _case_a_valid(b, i, a, bb)


# -- interior adjacent pair: the pivot flip and its obstructions --------------------


def _interior_pair(
    b: _Builder, i: int, a: Vertex, bb: Vertex, c=None, depth: int = 0
) -> None:
    """Adjacent a (district 2) and bb (district 3), not both on the boundary:
    dispatch on the connectivity of a's district-2 and district-3
    neighborhoods."""
    p = b.p
    if not at_most_one_arc(p, a, 3):
        _p2_pocket(b, i, a)
        return
    if at_most_one_arc(p, a, 2):
        _interior_valid(b, i, a, bb)
        return
    _interior_split(b, i, a, bb, c, depth)


def _interior_valid(b: _Builder, i: int, a: Vertex, bb: Vertex) -> None:
    """a flips to district 3; pair it with a district-1 vertex moving to
    district 2, handling the interactions when the two are adjacent."""
    note = "interior-pair"
    p = b.p
    region = p.region
    rem = _removables(p, _beyond(p, i))
    if not rem:
        raise PathError(note, "no removable district-1 vertex beyond the column")
    for u, to in rem:
        if to == 3:
            b.flip(u, 3, "release")
            return
    dist = _p1_distances(p)
    v = max(
        (u for u, _ in rem), key=lambda u: (dist.get(u, -1), ordering_index(u))
    )
    if not region.adjacent(v, a):
        b.flip(a, 3, note)
        b.flip(v, 2, note)
        return
    if flip_valid(apply_flip(p, a, 3), v, 2):
        b.flip(a, 3, note)
        b.flip(v, 2, note)
        return
    if [u for u in region.neighbors(v) if p.district(u) == 2] != [a]:
        raise PathError(note, "pivot is not the sole district-2 neighbor")
    if any(p.district(u) == 3 for u in region.neighbors(v)):
        raise PathError(note, "deleted sub-case: partner touches district 3")
    if not region.is_boundary(v):
        raise PathError(note, "deleted sub-case: interior partner of the pivot")
    if not region.is_boundary(a):
        raise PathError(note, "boundary vertex with interior pivot")
    _interior_valid_edge(b, i, a, v)


def _interior_valid_edge(b: _Builder, i: int, a: Vertex, v: Vertex) -> None:
    """v and a adjacent along the boundary with no district-3 neighbor of v."""
    note = "interior-pair"
    p = b.p
    region = p.region
    if v in region.corners:
        c = next(u for u in region.neighbors(v) if u != a)
        if p.district(c) != 1:
            raise PathError(note, "corner neighbor not in district 1")
        b.flip(v, 2, note)
        vp, to = find_shrink_vertex(b.p, b.p.district_set(2) - {v}, (3, 1))
        if to == 3:
            b.flip(vp, 3, note)
            return
        b.flip(vp, 1, note)
        b.flip(c, 3, note)
        return
    c = _sole_common(region, a, v)
    d = _other_common(region, v, c, a)
    e = _other_common(region, v, d, c)
    if any(p.district(u) != 1 for u in (c, d, e)):
        raise PathError(note, "boundary arc not in district 1")
    if not at_most_one_arc(p, c, 3):
        _p1_pocket(b, i, c)
        return
    if neighborhood_flip_test(p, c, 3):
        b.flip(c, 3, note)
        return
    comps = connected_components(region, p.district_set(1) - {v, c})
    away = [s for s in comps if (1, 1) not in s]
    if len(away) != 1:
        raise PathError(note, f"expected one cut-off component, got {len(away)}")
    vp, to = find_shrink_vertex(p, away[0], (3, 2))
    if to == 3:
        b.flip(vp, 3, note)
        return
    b.flip(vp, 2, note)
    b.flip(a, 3, note)


# -- interior adjacent pair with a split district-2 neighborhood --------------------


def _interior_anatomy(p: Partition, a: Vertex, bb: Vertex, c: Vertex) -> dict:
    """Decompose N(a) (a interior, district-3 arc connected, district-2 arcs
    split) into the cyclic blocks B(3), C(1), D(2), E(1), F(2), optional G(1),
    oriented so that c lies in C."""
    region = p.region
    nbrs = region.neighbors_cyclic(a)
    if any(u is OUTSIDE for u in nbrs):
        raise PathError("interior-pair", "pivot lies on the boundary")
    for direction in (1, -1):
        order = list(nbrs) if direction == 1 else [nbrs[0]] + list(nbrs[:0:-1])
        ds = [p.district(u) for u in order]
        starts = [
            j for j in range(6) if ds[j] == 3 and ds[(j - 1) % 6] != 3
        ]
        if len(starts) != 1:
            raise PathError("interior-pair", "district-3 arc not unique")
        j0 = starts[0]
        cyc = [order[(j0 + j) % 6] for j in range(6)]
        dseq = [p.district(u) for u in cyc]
        nb = 1
        while nb < 6 and dseq[nb] == 3:
            nb += 1
        if bb not in cyc[:nb]:
            continue
        runs: list[tuple[int, list[Vertex]]] = []
        for u, d in zip(cyc[nb:], dseq[nb:]):
            if runs and runs[-1][0] == d:
                runs[-1][1].append(u)
            else:
                runs.append((d, [u]))
        shape = [d for d, _ in runs]
        if shape not in ([1, 2, 1, 2], [1, 2, 1, 2, 1]):
            continue
        if c not in runs[0][1]:
            continue
        return {
            "B": cyc[:nb],
            "C": runs[0][1],
            "D": runs[1][1],
            "E": runs[2][1],
            "F": runs[3][1],
            "G": runs[4][1] if len(runs) == 5 else [],
        }
    raise PathError("interior-pair", "neighborhood anatomy mismatch")


def _split_arms(p: Partition, a: Vertex, c: Vertex, e: Vertex):
    """Non-adjacent arms for unwinding around a cut vertex e of district 1:
    (S1, S2, same_side) where S1 avoids the anchor corner.  When c sits with
    the anchor (same_side True) S2 is the district-2 component across the
    c-e-a cycle; otherwise S2 is None and the caller picks it."""
    region = p.region
    p1 = p.district_set(1)
    comps = connected_components(region, p1 - {e})
    comp_c = next(s for s in comps if c in s)
    if (1, 1) in comp_c:
        away = [s for s in comps if s is not comp_c]
        if len(away) != 1:
            raise PathError("interior-pair", "cut components not binary")
        s1 = away[0]
        cyc = path_within(region, p1, c, e) + [a]
        interior = vertices_enclosed(region, cyc)
        s1_inside = next(iter(s1)) in interior
        for s in connected_components(region, p.district_set(2) - {a}):
            if (next(iter(s)) in interior) != s1_inside:
                return s1, s, True
        raise PathError("interior-pair", "no opposite-side district-2 arm")
    return comp_c, None, False


def _interior_split(
    b: _Builder, i: int, a: Vertex, bb: Vertex, c=None, depth: int = 0
) -> None:
    """a interior with district 2 off the boundary, district-3 arc connected,
    district-2 arcs split; bb and c complete a tricolor face with a."""
    note = "interior-pair"
    p = b.p
    region = p.region
    if depth > 4:
        raise PathError(note, "split recursion exceeded its bound")
    if p.district_set(2) & region.boundary:
        raise PathError(note, "district 2 touches the boundary")
    if c is None:
        cands = [
            u for u in region.common_neighbors(a, bb) if p.district(u) == 1
        ]
        if not cands:
            raise PathError(note, "no tricolor witness for the pair")
        c = min(cands, key=ordering_index)
    blocks = _interior_anatomy(p, a, bb, c)
    d = blocks["D"][-1]
    e = blocks["E"][0]
    f = blocks["F"][0]
    if e in region.columns_leq(i):
        _interior_split_left(b, i, a, bb, c, e)
        return
    if region.is_boundary(e):
        _interior_split_edge(b, i, a, bb, d, e, f)
        return
    if len(blocks["E"]) == 1:
        _interior_split_one(b, i, a, bb, c, d, e, f, depth)
        return
    _interior_split_two(b, i, a, bb, c, d, e, f, blocks["E"][1], depth)


def _interior_split_left(
    b: _Builder, i: int, a: Vertex, bb: Vertex, c: Vertex, e: Vertex
) -> None:
    """e already sits in the swept columns, so c does not; move c out."""
    note = "interior-pair"
    p = b.p
    region = p.region
    if neighborhood_flip_test(p, c, 3):
        b.flip(c, 3, note)
        return
    if not at_most_one_arc(p, c, 3):
        _p1_pocket(b, i, c)
        return
    cyc = path_within(region, p.district_set(1), c, e) + [a]
    comps = connected_components(region, p.district_set(1) - {c})
    on_cycle = set(cyc) - {c}
    away = [s for s in comps if not (s & on_cycle)]
    if len(away) != 1:
        raise PathError(note, "cut components of c not binary")
    s1 = away[0]
    interior = vertices_enclosed(region, cyc)
    s1_inside = next(iter(s1)) in interior
    s2 = None
    for s in connected_components(region, p.district_set(2) - {a}):
        if (next(iter(s)) in interior) != s1_inside:
            s2 = s
            break
    if s2 is None:
        raise PathError(note, "no opposite-side district-2 arm")
    q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        b.flip(c, 3, note)
        return
    _interior_valid(b, i, a, bb)


def _interior_split_edge(
    b: _Builder, i: int, a: Vertex, bb: Vertex, d: Vertex, e: Vertex, f: Vertex
) -> None:
    """e on the boundary beyond the swept columns."""
    note = "interior-pair"
    p = b.p
    region = p.region
    cyc = region.boundary_cycle()
    k = cyc.index(e)
    g1, g2 = cyc[(k - 1) % len(cyc)], cyc[(k + 1) % len(cyc)]
    ds = {p.district(g1), p.district(g2)}
    if ds == {1, 3}:
        b.flip(e, 3, note)
        return
    if ds != {1}:
        raise PathError(note, "boundary flanks of e not in district 1")
    comps = connected_components(region, p.district_set(1) - {e})
    away = [s for s in comps if (1, 1) not in s]
    if len(away) != 1:
        raise PathError(note, "cut components of e not binary")
    s1 = away[0]
    h = g1 if region.adjacent(g1, d) else g2
    g = g2 if h == g1 else g1
    if g in s1:
        s2 = component_of(region, p.district_set(2) - {a}, d)
    elif h in s1:
        s2 = component_of(region, p.district_set(2) - {a}, f)
    else:
        raise PathError(note, "cut-off component misses both flanks")
    q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        # district 2 now reaches the boundary next to district 3
        _case_a(b, i)
        return
    _interior_valid(b, i, a, bb)


def _interior_split_one(
    b: _Builder,
    i: int,
    a: Vertex,
    bb: Vertex,
    c: Vertex,
    d: Vertex,
    e: Vertex,
    f: Vertex,
    depth: int,
) -> None:
    """The lone district-1 vertex e between the two district-2 arcs of N(a)."""
    note = "interior-pair"
    p = b.p
    region = p.region
    if neighborhood_flip_test(p, e, 2):
        b.flip(e, 2, note)
        b.flip(a, 3, note)
        return
    if at_most_one_arc(p, e, 1):
        if neighborhood_flip_test(p, e, 3):
            b.flip(e, 3, note)
            return
        raise PathError(note, "alternation gave no target for e")
    g = _other_common(region, e, f, a)
    h = _other_common(region, e, d, a)
    if p.district(g) != 1 or p.district(h) != 1:
        raise PathError(note, "flanks of e not in district 1")
    s1, s2, same_side = _split_arms(p, a, c, e)
    if not same_side:
        if h not in s1:
            raise PathError(note, "cut-off component misses the d-side flank")
        s2 = component_of(region, p.district_set(2) - {a}, f)
    x = d if d in s2 else (f if f in s2 else None)
    if x is None:
        raise PathError(note, "neither inner pivot lies in the arm")
    if s2 - {x}:
        q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, protected=x, note="unwind")
        b.extend(steps)
        if outcome == "balanced":
            return
        if outcome == "s1-exhausted":
            b.flip(e, 2, note)
            b.flip(a, 3, note)
            return
    _interior_split_endgame(b, i, a, bb, e, x)


def _interior_split_endgame(
    b: _Builder, i: int, a: Vertex, bb: Vertex, e: Vertex, x: Vertex
) -> None:
    """x is the lone remaining vertex of its district-2 arm."""
    note = "interior-pair"
    p = b.p
    region = p.region
    comps = connected_components(region, p.district_set(1) - {e})
    away = [s for s in comps if (1, 1) not in s]
    if len(away) != 1:
        raise PathError(note, "endgame cut components not binary")
    v1, to = find_shrink_vertex(p, away[0], (3, 2))
    if to == 3:
        b.flip(v1, 3, note)
        return
    if neighborhood_flip_test(p, x, 3):
        b.flip(x, 3, note)
        b.flip(v1, 2, note)
        return
    b.flip(v1, 2, note)
    b.flip(x, 1, note)
    _interior_valid(b, i, a, bb)


def _interior_split_two(
    b: _Builder,
    i: int,
    a: Vertex,
    bb: Vertex,
    c: Vertex,
    d: Vertex,
    e: Vertex,
    f: Vertex,
    e2: Vertex,
    depth: int,
) -> None:
    """Two district-1 vertices e (next to d) and e2 (next to f) between the
    district-2 arcs; reduce to the single-vertex configuration."""
    note = "interior-pair"
    p = b.p
    region = p.region
    if neighborhood_flip_test(p, e, 2):
        b.flip(e, 2, note)
        _interior_goal(b, i, a, bb, depth)
        return
    if e2 not in region.columns_leq(i) and neighborhood_flip_test(p, e2, 2):
        b.flip(e2, 2, note)
        _interior_goal(b, i, a, bb, depth)
        return
    en = region.neighbors_cyclic(e)
    ka = en.index(a)
    step = 1 if en[(ka + 1) % 6] == d else -1
    h = None
    for j in range(1, 6):
        u = en[(ka + step * j) % 6]
        if u is OUTSIDE or p.district(u) != 2:
            h = u
            break
    if h is OUTSIDE or h is None or p.district(h) != 1:
        raise PathError(note, "first non-2 witness around e not in district 1")
    if at_most_one_arc(p, e, 1):
        raise PathError(note, "e connected yet unfippable to district 2")
    s1, s2, same_side = _split_arms(p, a, c, e)
    if not same_side:
        if h not in s1:
            raise PathError(note, "cut-off component misses the h flank")
        s2 = component_of(region, p.district_set(2) - {a}, f)
    if s1 & region.boundary:
        raise PathError(note, "cut-off arm reaches the boundary")
    q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s2-exhausted":
        b.flip(a, 3, note)
        return
    # all of s1 joined district 2; e is no longer a cut vertex
    if neighborhood_flip_test(b.p, e, 3):
        b.flip(e, 3, note)
        return
    b.flip(e, 2, note)
    if e2 in s1:
        b.flip(a, 3, note)
        return
    _interior_goal(b, i, a, bb, depth)


def _interior_goal(
    b: _Builder, i: int, a: Vertex, bb: Vertex, depth: int
) -> None:
    """After growing district 2 by one next to a: return the surplus far from
    a and resume with a single in-between vertex."""
    note = "interior-pair"
    p = b.p
    region = p.region
    pool = p.district_set(2) - {a} - set(region.neighbors(a))
    comps = connected_components(region, pool)
    if not comps:
        raise PathError(note, "district 2 confined to the pivot neighborhood")
    comps.sort(key=lambda s: min(ordering_index(u) for u in s))
    v2, to = find_shrink_vertex(p, comps[0], (3, 1))
    if to == 3:
        b.flip(v2, 3, note)
        return
    b.flip(v2, 1, note)
    _interior_pair(b, i, a, bb, depth=depth + 1)


# -- Cases B, C, D (interior adjacency and non-adjacency) ---------------------------


def _case_b(b: _Builder, i: int) -> None:
    p = b.p
    if p.district_set(2) & p.region.boundary:
        raise PathError("interior-2", "district 2 touches the boundary")
    tris = sorted(
        tricolor_triangles(p),
        key=lambda t: min(ordering_index(u) for u in t.vertices),
    )
    if not tris:
        raise PathError("interior-2", "no tricolor face")
    _first_success(
        b,
        _interior_pair,
        [
            (i, tri.vertex_in(p, 2), tri.vertex_in(p, 3), tri.vertex_in(p, 1))
            for tri in tris
        ],
    )


def _case_c(b: _Builder, i: int) -> None:
    """District 3 misses the boundary: exactly two tricolor faces of opposite
    chirality exist; work from whichever gives a boundary-free district-2
    arm behind its pivot."""
    note = "interior-3"
    p = b.p
    region = p.region
    if p.district_set(3) & region.boundary:
        raise PathError(note, "district 3 touches the boundary")
    tris = sorted(
        tricolor_triangles(p),
        key=lambda t: (
            t.chirality != "cw",
            min(ordering_index(u) for u in t.vertices),
        ),
    )
    if len(tris) != 2:
        raise PathError(note, f"expected two tricolor faces, got {len(tris)}")
    for tri in tris:
        a = tri.vertex_in(p, 2)
        if not at_most_one_arc(p, a, 3):
            _p2_pocket(b, i, a)
            return
    for tri in tris:
        a = tri.vertex_in(p, 2)
        if at_most_one_arc(p, a, 2):
            _interior_valid(b, i, a, tri.vertex_in(p, 3))
            return
    for tri in tris:
        a = tri.vertex_in(p, 2)
        if region.is_boundary(a):
            _case_c_abd(b, i, a, tri.vertex_in(p, 3), tri.vertex_in(p, 1))
            return
    # both pivots are interior cut vertices of district 2 with a connected
    # district-3 arc; at least one arm behind a pivot misses the boundary
    for tri in tris:
        a = tri.vertex_in(p, 2)
        bbv = tri.vertex_in(p, 3)
        c = tri.vertex_in(p, 1)
        d, _, _, _, _ = _case_c_anatomy(p, a, bbv, c)
        s2 = component_of(region, p.district_set(2) - {a}, d)
        if not (s2 & region.boundary):
            _case_c_dispatch(b, i, a, bbv, c, 0)
            return
    raise PathError(note, "no boundary-free district-2 arm behind a pivot")


def _case_c_anatomy(p: Partition, a: Vertex, bbv: Vertex, c: Vertex):
    """Walk N(a) (a interior) from c away from bbv: the rest of c's
    district-1 run, then the district-2 run (d first, d-prime last), then the
    district-1 run (e first), then f in district 2."""
    note = "interior-3"
    region = p.region
    nbrs = region.neighbors_cyclic(a)
    if any(u is OUTSIDE for u in nbrs):
        raise PathError(note, "pivot lies on the boundary")
    k = nbrs.index(c)
    if nbrs[(k + 1) % 6] == bbv:
        step = -1
    elif nbrs[(k - 1) % 6] == bbv:
        step = 1
    else:
        raise PathError(note, "face vertices not consecutive around the pivot")
    seq = [nbrs[(k + step * j) % 6] for j in range(1, 6)]
    ds = [p.district(u) for u in seq]
    j = 0
    while j < 5 and ds[j] == 1:
        j += 1
    if j >= 5 or ds[j] != 2:
        raise PathError(note, "no district-2 run after c around the pivot")
    d = seq[j]
    dprime = d
    while j < 5 and ds[j] == 2:
        dprime = seq[j]
        j += 1
    if j >= 5 or ds[j] != 1:
        raise PathError(note, "no district-1 run after d around the pivot")
    e = seq[j]
    e_run = []
    while j < 5 and ds[j] == 1:
        e_run.append(seq[j])
        j += 1
    if j >= 5 or ds[j] != 2:
        raise PathError(note, "no second district-2 run around the pivot")
    return d, dprime, e, e_run, seq[j]


def _case_c_abd(b: _Builder, i: int, a: Vertex, bbv: Vertex, c: Vertex) -> None:
    """The pivot a sits on the boundary with both boundary neighbors in
    district 2; move c out of district 1 or unwind across the g-a cycle."""
    note = "interior-3"
    p = b.p
    region = p.region
    if not at_most_one_arc(p, c, 3):
        _p1_pocket_bdry(b, i, c)
        return
    if at_most_one_arc(p, c, 1):
        b.flip(c, 3, note)
        return
    f = _other_common(region, c, bbv, a)
    g = _other_common(region, c, f, bbv)
    h = _other_common(region, c, g, f)
    if p.district(f) != 1 or p.district(g) != 2 or p.district(h) != 1:
        raise PathError(note, "forced labels around c absent")
    q2 = path_within(region, p.district_set(2), g, a)
    cyc = q2 + [c]
    interior = vertices_enclosed(region, cyc)
    comps = connected_components(region, p.district_set(1) - {c})
    inside = [s for s in comps if next(iter(s)) in interior]
    if len(inside) != 1:
        raise PathError(note, f"expected one enclosed component, got {len(inside)}")
    s1 = inside[0]
    if (1, 1) in s1:
        raise PathError(note, "enclosed component holds the anchor")
    qset = set(q2)
    away = [
        s
        for s in connected_components(region, p.district_set(2) - {a})
        if not (s & qset)
    ]
    if len(away) != 1:
        raise PathError(note, f"expected one off-path arm, got {len(away)}")
    q, steps, outcome = unwind(p, s1, away[0], 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        b.flip(c, 3, note)
        return
    _interior_valid(b, i, a, bbv)


def _case_c_dispatch(
    b: _Builder, i: int, a: Vertex, bbv: Vertex, c: Vertex, depth: int
) -> None:
    """Resolve the chosen pivot by moving c out, adding e to district 2, or
    reducing through the cut-vertex claims; ends balanced or recurses through
    the goal loop."""
    note = "interior-3"
    p = b.p
    region = p.region
    if depth > 8:
        raise PathError(note, "goal recursion exceeded its bound")
    d, dprime, e, e_run, f = _case_c_anatomy(p, a, bbv, c)
    left = region.columns_leq(i)
    if e in left:
        if neighborhood_flip_test(p, c, 3):
            b.flip(c, 3, note)
            return
        if not at_most_one_arc(p, c, 3):
            _p1_pocket_bdry(b, i, c)
            return
        raise PathError(note, "deleted sub-case: c cuts off a district-1 arm")
    if neighborhood_flip_test(p, e, 2):
        b.flip(e, 2, note)
        _case_c_post(b, i, a, bbv, c, depth)
        return
    if at_most_one_arc(p, e, 1):
        if region.is_boundary(e):
            raise PathError(note, "boundary e with a connected 1-neighborhood")
        if neighborhood_flip_test(p, e, 3):
            b.flip(e, 3, note)
            return
        raise PathError(note, "alternation gave no target for e")
    if c in left:
        comps = connected_components(region, p.district_set(1) - {e})
        away = [s for s in comps if c not in s]
        if len(away) != 1:
            raise PathError(note, "cut components of e not binary")
        if (1, 1) in away[0]:
            raise PathError(note, "cut-off component of e holds the anchor")
        _case_c_ecut(b, i, a, bbv, c, e, d, dprime, away[0], depth)
        return
    if neighborhood_flip_test(p, c, 3):
        b.flip(c, 3, note)
        return
    if not at_most_one_arc(p, c, 3):
        _p1_pocket_bdry(b, i, c)
        return
    away_c = [
        s
        for s in connected_components(region, p.district_set(1) - {c})
        if e not in s
    ]
    away_e = [
        s
        for s in connected_components(region, p.district_set(1) - {e})
        if c not in s
    ]
    if len(away_c) != 1 or len(away_e) != 1:
        raise PathError(note, "cut components of c and e not binary")
    if (1, 1) not in away_c[0]:
        raise PathError(note, "deleted sub-case: c cuts off a district-1 arm")
    if (1, 1) not in away_e[0]:
        _case_c_ecut(b, i, a, bbv, c, e, d, dprime, away_e[0], depth)
        return
    raise PathError(note, "both cut-off components hold the anchor")


def _case_c_ecut(
    b: _Builder,
    i: int,
    a: Vertex,
    bbv: Vertex,
    c: Vertex,
    e: Vertex,
    d: Vertex,
    dprime: Vertex,
    s1,
    depth: int,
) -> None:
    """e is a cut vertex of district 1 whose far component s1 misses the
    anchor; resolve it while keeping d-prime in district 2 so the pivot's
    2-neighborhood can later be reconnected through e."""
    note = "interior-3"
    p = b.p
    region = p.region
    cyc = path_within(region, p.district_set(1), e, c) + [a]
    interior = vertices_enclosed(region, cyc)
    s2 = component_of(region, p.district_set(2) - {a}, d)
    if next(iter(s1)) in interior:
        if region.is_boundary(e):
            raise PathError(note, "enclosed arm with a boundary cut vertex")
        q, step = cycle_recombine(
            p, cyc, a, e, keep=dprime, note="cycle-recombine"
        )
        b.extend([step])
        if neighborhood_flip_test(b.p, e, 3):
            b.flip(e, 3, note)
            return
        b.flip(e, 2, note)
        _case_c_post(b, i, a, bbv, c, depth)
        return
    if s2 - {dprime}:
        q, steps, outcome = unwind(
            p, s1, s2, 1, 2, 3, protected=dprime, note="unwind"
        )
        b.extend(steps)
        if outcome == "balanced":
            return
        if outcome == "s1-exhausted":
            if neighborhood_flip_test(b.p, e, 3):
                b.flip(e, 3, note)
                return
            b.flip(e, 2, note)
            _case_c_post(b, i, a, bbv, c, depth)
            return
    _case_c_endgame(b, i, a, bbv, dprime, e)


def _case_c_endgame(
    b: _Builder, i: int, a: Vertex, bbv: Vertex, dprime: Vertex, e: Vertex
) -> None:
    """d-prime is the lone remaining vertex of the arm behind a."""
    note = "interior-3"
    p = b.p
    region = p.region
    comps = connected_components(region, p.district_set(1) - {e})
    away = [s for s in comps if (1, 1) not in s]
    if len(away) != 1:
        raise PathError(note, "endgame cut components not binary")
    v1, to = find_shrink_vertex(p, away[0], (3, 2))
    if to == 3:
        b.flip(v1, 3, note)
        return
    b.flip(v1, 2, note)
    if neighborhood_flip_test(b.p, dprime, 3):
        b.flip(dprime, 3, note)
        return
    b.flip(dprime, 1, note)
    _interior_valid(b, i, a, bbv)


def _case_c_post(
    b: _Builder, i: int, a: Vertex, bbv: Vertex, c: Vertex, depth: int
) -> None:
    """After e joins district 2 (district 2 one over, district 3 one under):
    flip the pivot, or return the surplus from deep in the arm and repeat with
    the remaining in-between vertex."""
    note = "interior-3"
    p = b.p
    region = p.region
    if neighborhood_flip_test(p, a, 3):
        b.flip(a, 3, note)
        return
    d, dbar, ebar, e_run, f = _case_c_anatomy(p, a, bbv, c)
    s2 = component_of(region, p.district_set(2) - {a}, d)
    if s2 - {dbar}:
        comps = [
            s
            for s in connected_components(
                region, p.district_set(2) - {a, dbar}
            )
            if s <= s2
        ]
        if not comps:
            raise PathError(note, "arm has no component past its inner vertex")
        comps.sort(key=lambda s: min(ordering_index(u) for u in s))
        v, to = find_shrink_vertex(p, comps[0], (3, 1))
        if to == 3:
            b.flip(v, 3, note)
            return
        b.flip(v, 1, note)
        _case_c_dispatch(b, i, a, bbv, c, depth + 1)
        return
    if neighborhood_flip_test(p, dbar, 3):
        b.flip(dbar, 3, note)
        return
    b.flip(dbar, 1, note)
    _interior_valid(b, i, a, bbv)


def _case_d(b: _Builder, i: int) -> None:
    """Districts 2 and 3 share no edge: work at a boundary junction of
    districts 1 and 3 beyond the swept columns."""
    p = b.p
    region = p.region
    consecutive = region.boundary_pairs
    left = region.columns_leq(i)
    cand = []
    for a in sorted(p.district_set(1) & region.boundary, key=ordering_index):
        if a in left:
            continue
        for w in region.neighbors(a):
            if w in region.boundary and p.district(w) == 3:
                cand.append((a, w))
    cand.sort(
        key=lambda pr: (frozenset(pr) not in consecutive, ordering_index(pr[0]))
    )
    if not cand:
        raise PathError("separated", "no boundary junction pair")
    _first_success(b, _case_d_pair, [(i, a, bv) for a, bv in cand])


def _case_d_pair(b: _Builder, i: int, a: Vertex, bv: Vertex) -> None:
    note = "separated"
    p = b.p
    region = p.region
    if neighborhood_flip_test(p, a, 3):
        b.flip(a, 3, note)
        return
    if not at_most_one_arc(p, a, 3):
        _p1_pocket_bdry(b, i, a)
        return
    c = _sole_common(region, a, bv)
    d = _other_common(region, a, c, bv)
    e = _other_common(region, a, d, c)
    if p.district(c) != 1 or p.district(e) != 1 or p.district(d) != 2:
        raise PathError(note, "forced junction labels absent")
    if at_most_one_arc(p, d, 1) and at_most_one_arc(p, d, 2):
        _case_d_one(b, i, a, d, c, e)
        return
    f = _other_common(region, d, c, a)
    g = _other_common(region, d, f, c)
    h = _other_common(region, d, g, f)
    if p.district(f) != 2 or p.district(g) != 1 or p.district(h) != 2:
        raise PathError(note, "forced wedge labels absent")
    if at_most_one_arc(p, g, 1) and at_most_one_arc(p, g, 2):
        _case_d_2a(b, i, a, bv, d, g)
        return
    _case_d_2b(b, i, a, bv, d, f, g, h)


def _case_d_one(b: _Builder, i: int, a: Vertex, d: Vertex, c: Vertex, e: Vertex) -> None:
    """d (district 2) separates a's district-1 neighborhood and flips cleanly;
    free a replacement first."""
    note = "separated"
    p = b.p
    region = p.region
    comps = connected_components(region, p.district_set(1) - {a})
    away = [s for s in comps if (1, 1) not in s]
    if len(away) != 1:
        raise PathError(note, "cut components of a not binary")
    s1 = away[0]
    x = c if c in s1 else (e if e in s1 else None)
    if x is None:
        raise PathError(note, "cut-off component misses both junction flanks")
    dn = region.neighbors_cyclic(d)
    ka = dn.index(a)
    step = 1 if dn[(ka + 1) % 6] == x else -1
    y, z = None, None
    for j in range(1, 6):
        u = dn[(ka + step * j) % 6]
        if u is OUTSIDE:
            break
        if p.district(u) == 1:
            y = u
        else:
            z = u
            break
    if y is None or z is None or p.district(z) != 2:
        raise PathError(note, "wedge scan found no handoff pair")
    if at_most_one_arc(p, y, 1):
        if neighborhood_flip_test(p, y, 3):
            b.flip(y, 3, note)
            return
        b.flip(y, 2, note)
        b.flip(d, 1, note)
        b.flip(a, 3, note)
        return
    comps_y = connected_components(region, p.district_set(1) - {y})
    far = [s for s in comps_y if a not in s]
    if not far:
        raise PathError(note, "no component of the handoff cut avoids a")
    far.sort(key=lambda s: min(ordering_index(u) for u in s))
    v, to = find_shrink_vertex(p, far[0], (3, 2))
    if to == 3:
        b.flip(v, 3, note)
        return
    b.flip(v, 2, note)
    b.flip(d, 1, note)
    b.flip(a, 3, note)


def _case_d_resume_one(b: _Builder, i: int, a: Vertex, bv: Vertex) -> None:
    """After unwinding, d's neighborhoods are clean again; re-derive the local
    labels and finish as in the clean-wedge case."""
    p = b.p
    region = p.region
    if districts_adjacent(p, 2, 3):
        raise PathError(
            "separated", "deleted sub-case: unwinding made districts 2 and 3 adjacent"
        )
    if neighborhood_flip_test(p, a, 3):
        b.flip(a, 3, "separated")
        return
    c = _sole_common(region, a, bv)
    d = _other_common(region, a, c, bv)
    e = _other_common(region, a, d, c)
    if p.district(c) != 1 or p.district(e) != 1 or p.district(d) != 2:
        raise PathError("separated", "junction labels changed under unwinding")
    _case_d_one(b, i, a, d, c, e)


def _case_d_2a(
    b: _Builder, i: int, a: Vertex, bv: Vertex, d: Vertex, g: Vertex
) -> None:
    """g (district 1, two columns right of the wedge) hands its spot to
    district 2 so d can join district 1."""
    note = "separated"
    p = b.p
    region = p.region
    if g not in region.columns_leq(i):
        b.flip(g, 2, note)
        b.flip(d, 1, note)
        b.flip(a, 3, note)
        return
    qpath = path_within(region, p.district_set(1), a, g)
    on_q = set(qpath)
    comps = connected_components(region, p.district_set(1) - {a})
    away = [s for s in comps if not (s & on_q)]
    if len(away) != 1:
        raise PathError(note, "cut components of a not binary")
    s1 = away[0]
    cyc = qpath + [d]
    interior = vertices_enclosed(region, cyc)
    if s1 & interior:
        raise PathError(note, "free arm trapped inside the wedge cycle")
    s2 = None
    for s in connected_components(region, p.district_set(2) - {d}):
        if next(iter(s)) in interior:
            s2 = s
            break
    if s2 is None:
        raise PathError(note, "no district-2 arm inside the wedge cycle")
    q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        b.flip(a, 3, note)
        return
    _case_d_resume_one(b, i, a, bv)


def _case_d_2b(
    b: _Builder,
    i: int,
    a: Vertex,
    bv: Vertex,
    d: Vertex,
    f: Vertex,
    g: Vertex,
    h: Vertex,
) -> None:
    """g is a cut vertex of district 1; unwind or recombine across the a-g
    cycle before handing g to district 2."""
    note = "separated"
    p = b.p
    region = p.region
    if region.is_boundary(g):
        raise PathError(note, "cut wedge vertex on the boundary")
    l = _other_common(region, g, f, d)
    m = _other_common(region, g, l, f)
    o = _other_common(region, g, h, d)
    if p.district(l) != 1 or p.district(o) != 1 or p.district(m) == 1:
        raise PathError(note, "forced cut-wedge labels absent")
    qpath = path_within(region, p.district_set(1), a, g)
    on_q = set(qpath)
    cyc = qpath + [d]
    interior = vertices_enclosed(region, cyc)

    def off_cycle(center):
        comps = connected_components(region, p.district_set(1) - {center})
        away = [s for s in comps if not (s & on_q)]
        if len(away) != 1:
            raise PathError(note, "cut components not binary")
        return away[0]

    s1a = off_cycle(a)
    s1g = off_cycle(g)
    cands = [s for s in (s1a, s1g) if (1, 1) not in s]
    if not cands:
        raise PathError(note, "both off-cycle components hold the anchor")
    s1 = cands[0]
    if not (s1 & interior):
        s2 = None
        for s in connected_components(region, p.district_set(2) - {d}):
            if next(iter(s)) in interior:
                s2 = s
                break
        if s2 is None:
            raise PathError(note, "no district-2 arm inside the cycle")
        q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, note="unwind")
        b.extend(steps)
        if outcome == "balanced":
            return
        if districts_adjacent(b.p, 2, 3):
            raise PathError(
                note, "deleted sub-case: unwinding made districts 2 and 3 adjacent"
            )
        if outcome == "s1-exhausted":
            if s1 is s1a:
                b.flip(a, 3, note)
                return
            _case_d_2a(b, i, a, bv, d, g)
            return
        _case_d_resume_one(b, i, a, bv)
        return
    if s1 is not s1g:
        raise PathError(note, "junction component enclosed by the cycle")
    q, step = cycle_recombine(p, cyc, d, g, note="cycle-recombine")
    b.extend([step])
    _case_d_2a(b, i, a, bv, d, g)


# -- sweep and finishing ------------------------------------------------------------


def _first_open_column(p: Partition) -> int:
    """The first column not inside district 1: the column of the lowest
    vertex outside it (bit col * width + row)."""
    region = p.region
    rest = region.full_mask & ~p.masks()[0]
    return ((rest & -rest).bit_length() - 1) // region.width


def _sweep_std(b: _Builder) -> int:
    """Role space: district 1 holds the anchor corner.  Returns the final
    column index i with C_{<i} in district 1 and district 1 inside C_{<=i}."""
    region = b.p.region
    n = region.n
    guard = 0
    while True:
        i = _first_open_column(b.p)
        if not _beyond(b.p, i):
            return i
        if i > n - 2:
            raise PathError("sweep", f"column index {i} exceeds {n - 2}")
        guard += 1
        if guard > region.num_vertices * n:
            raise PathError("sweep", "no progress")
        _advance_column(b, i)
        if not b.balanced():
            _rebalance_roles(b, i)


def _finish_std(b: _Builder) -> None:
    """Role space, post-sweep: drive to the block state with districts in
    ascending order along the vertex ordering.  District 1 is read as a
    bitboard; bit order is the vertex ordering, so the first k1 vertices
    are the k1 lowest bits."""
    p = b.p
    region = p.region
    n = region.n
    k1, k2, k3 = p.targets
    i = _first_open_column(p)
    m1 = p.masks()[0]
    if region.cols_leq_mask(i - 1) & ~m1 or m1 & ~region.cols_leq_mask(i):
        raise PathError("block-finish", "district 1 not nestled at a column")
    if i > n - 2:
        raise PathError("block-finish", f"column index {i} exceeds {n - 2}")
    bits = region.bits
    first = region.full_mask & ((bits[k1 - 1] << 1) - 1)
    sigma = tuple([1] * k1 + [2] * k2 + [3] * k3)
    if _free_mask(region, m1, i).bit_count() <= k2:
        tail = region.full_mask & -(bits[k1 + k2 - 1] << 1)
        labels = tuple(
            1 if bit & m1 else (3 if bit & tail else 2) for bit in bits
        )
        if labels != b.p.labels:
            b.extend([RecomStep(1, labels, "block-shuffle")])
        if b.p.labels != sigma:
            b.extend([RecomStep(3, sigma, "block-finish")])
        return
    rounds = 0
    while b.p.masks()[0] != first:
        rounds += 1
        if rounds > n:
            raise PathError("block-finish", "no progress in column rounds")
        _ground_round(b, i)
    if b.p.labels != sigma:
        b.extend([RecomStep(1, sigma, "block-finish")])


def _free_mask(region: TriRegion, m1: int, i: int) -> int:
    """Column i outside district 1, plus column i + 1, as a bitboard."""
    cols = region.cols_leq_mask
    return (cols(i) & ~cols(i - 1) & ~m1) | (cols(i + 1) & ~cols(i))


def _ground_round(b: _Builder, i: int) -> None:
    """One round moving the topmost non-district-1 vertex of column i into
    district 1: a district-2/3 recombination seeding from below, then a
    district-1/2 swap."""
    p = b.p
    region = p.region
    k2 = p.targets[1]
    m1 = p.masks()[0]
    lo, hi = i * (i - 1) // 2, i * (i + 1) // 2
    col, col_bits = region.vertices[lo:hi], region.bits[lo:hi]
    top = next(j for j, bit in enumerate(col_bits) if not bit & m1)
    below = top
    while below < len(col) and not col_bits[below] & m1:
        below += 1
    if below >= len(col):
        raise PathError("block-shuffle", "no district-1 vertex below the gap")
    v, w = col[top], col[below]
    u0 = (i + 1, v[1] + 1)
    new2 = list(col[top:below]) + [u0]
    if len(new2) > k2:
        raise PathError("block-shuffle", "seed exceeds district-2 target")
    pool = sorted(
        region.vertices_of(_free_mask(region, m1, i) & ~region.mask_of(new2)),
        key=lambda x: (_hex_distance(x, u0), x[0], ordering_index(x)),
    )
    new2 += pool[: k2 - len(new2)]
    if len(new2) != k2:
        raise PathError("block-shuffle", "cannot fill district 2 locally")
    new2_mask = region.mask_of(new2)
    labels = tuple(
        1 if bit & m1 else (2 if bit & new2_mask else 3) for bit in region.bits
    )
    if labels != p.labels:
        b.extend([RecomStep(1, labels, "block-shuffle")])
    after = list(b.p.labels)
    after[region.index_of[v]] = 1
    after[region.index_of[w]] = 2
    b.extend([RecomStep(3, tuple(after), "column-swap")])


# -- nearly balanced repair -----------------------------------------------------------


def _balance_std(b: _Builder) -> None:
    _nb_rebalance(b, 0)


def _nb_rebalance(b: _Builder, depth: int) -> None:
    """Map the oversized district to role 1 and the deficit district to role
    3, then repair."""
    sizes, targets = b.p.sizes(), b.p.targets
    over = under = None
    for d in (1, 2, 3):
        if sizes[d - 1] == targets[d - 1] + 1:
            over = d
        elif sizes[d - 1] == targets[d - 1] - 1:
            under = d
    if over is None or under is None:
        raise PathError("restore-balance", f"sizes {sizes} not nearly balanced")
    mid = ({1, 2, 3} - {over, under}).pop()
    b.run(_nb_core, depth, roles={over: 1, mid: 2, under: 3})


def _nb_core(b: _Builder, depth: int) -> None:
    """Role space: district 1 one over target, district 3 one under.  A
    corner in district 1 reduces to the column rebalance anchored there;
    otherwise shed a vertex directly or work at a boundary junction."""
    note = "restore-balance"
    if depth > 4:
        raise PathError(note, "repair recursion exceeded its bound")
    p = b.p
    region = p.region
    corners = region.corners
    held = [x for x in corners if p.district(x) == 1]
    if held:
        turns = {corners[0]: 0, corners[1]: 2, corners[2]: 1}[held[0]]
        b.run(_rebalance_frozen, 1, turns=turns)
        return
    rem = _removables(p, p.masks()[0])
    for v, to in rem:
        if to == 3:
            b.flip(v, 3, note)
            return
    if any(x in p.district_set(2) for x in corners):
        if not rem:
            raise PathError(note, "no removable vertex in the oversized district")
        b.flip(rem[0][0], 2, note)
        _nb_rebalance(b, depth + 1)
        return
    if not all(p.district(x) == 3 for x in corners):
        raise PathError(note, "corners split between the settled districts")
    cyc = region.boundary_cycle()
    pairs = []
    for u, w in zip(cyc, cyc[1:] + cyc[:1]):
        for x, y in ((u, w), (w, u)):
            if p.district(x) != 3 and p.district(y) == 3:
                pairs.append((x, y))
    p1_pairs = sorted(
        (pr for pr in pairs if p.district(pr[0]) == 1),
        key=lambda pr: (ordering_index(pr[0]), ordering_index(pr[1])),
    )
    first_err = None
    for a, bv in p1_pairs:
        err = b.attempt(_nb_junction, a, bv, depth)
        if err is None:
            return
        if first_err is None:
            first_err = err
    if any(p.district(pr[0]) == 2 for pr in pairs) and rem:
        b.flip(rem[0][0], 2, note)
        _nb_rebalance(b, depth + 1)
        return
    if first_err is not None:
        raise first_err
    raise PathError(note, "no boundary junction with the deficit district")


def _nb_junction(b: _Builder, a: Vertex, bv: Vertex, depth: int) -> None:
    """a (district 1) and bv (district 3) adjacent along the boundary; a does
    not flip directly (_nb_core found no removable vertex flipping to 3), so
    dispatch on which of a's neighborhoods splits."""
    note = "restore-balance"
    p = b.p
    region = p.region
    slots = region.neighbors_cyclic(a)
    ks = [k for k in range(6) if slots[k] is not OUTSIDE]
    if len(ks) != 4:
        raise PathError(note, "junction vertex is a corner")
    start = next(k for k in ks if slots[(k - 1) % 6] is OUTSIDE)
    seq = [slots[(start + j) % 6] for j in range(4)]
    if seq[-1] == bv:
        seq.reverse()
    if seq[0] != bv:
        raise PathError(note, "deficit neighbor not at the junction arc end")
    i_conn = at_most_one_arc(p, a, 1)
    l_conn = at_most_one_arc(p, a, 3)
    if i_conn and l_conn:
        raise PathError(note, "junction vertex connected yet unflippable")
    if not i_conn and not l_conn:
        if [p.district(u) for u in seq] != [3, 1, 3, 1]:
            raise PathError(note, "forced junction labels absent")
        for s in connected_components(region, p.district_set(1) - {a}):
            if not any(
                p.district(u) == 2
                for v in s
                for u in region.neighbors(v)
            ):
                vp, _ = find_shrink_vertex(p, s, (3,))
                b.flip(vp, 3, note)
                return
        raise PathError(note, "no component clear of the settled district")
    if not i_conn:
        _nb_junction_wedge(b, a, seq, depth)
        return
    _nb_junction_split(b, a, bv, seq, depth)


def _nb_junction_wedge(b: _Builder, a: Vertex, seq, depth: int) -> None:
    """a's own neighborhood splits around a settled-district wedge vertex d."""
    note = "restore-balance"
    p = b.p
    region = p.region
    c, d, e = seq[1], seq[2], seq[3]
    if p.district(c) != 1 or p.district(d) != 2 or p.district(e) != 1:
        raise PathError(note, "forced wedge labels absent")
    if at_most_one_arc(p, d, 1) and at_most_one_arc(p, d, 2):
        _nb_dclean(b, a, d)
        return
    f = _other_common(region, d, c, a)
    g = _other_common(region, d, f, c)
    h = _other_common(region, d, e, a)
    if not at_most_one_arc(p, d, 1):
        if p.district(g) != 1 or p.district(f) == 1 or p.district(h) == 1:
            raise PathError(note, "forced cut-wedge labels absent")
        qpath = path_within(region, p.district_set(1), a, g)
        cycq = qpath + [d]
        interior = vertices_enclosed(region, cycq)
        inside = [
            s
            for s in connected_components(region, p.district_set(2) - {d})
            if next(iter(s)) in interior
        ]
        if len(inside) != 1:
            raise PathError(note, "expected one enclosed settled arm")
        s_j = inside[0]
        qset = set(qpath) - {a}
        away = [
            s
            for s in connected_components(region, p.district_set(1) - {a})
            if not (s & qset)
        ]
        if len(away) != 1:
            raise PathError(note, "cut components of a not binary")
        s_i = away[0]
    else:
        if p.district(f) != 2 or p.district(g) != 3 or p.district(h) != 2:
            raise PathError(note, "forced split-wedge labels absent")
        s_i = component_of(region, p.district_set(1) - {a}, e)
        s_j = component_of(region, p.district_set(2) - {d}, f)
    q, steps, outcome = unwind(p, s_i, s_j, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        b.flip(a, 3, note)
        return
    _nb_dclean(b, a, d)


def _nb_dclean(b: _Builder, a: Vertex, d: Vertex) -> None:
    """d (district 2) has clean neighborhoods: free a spot away from d, hand
    d to district 1, and release a to the deficit."""
    note = "restore-balance"
    p = b.p
    region = p.region
    pool = p.district_set(1) - set(region.neighbors(d))
    comps = sorted(
        connected_components(region, pool),
        key=lambda s: min(ordering_index(u) for u in s),
    )
    for s in comps:
        try:
            v, to = find_shrink_vertex(p, s, (3, 2))
        except NoShrinkVertex:
            continue
        if to == 3:
            b.flip(v, 3, note)
            return
        b.flip(v, 2, note)
        b.flip(d, 1, note)
        b.flip(a, 3, note)
        return
    raise PathError(note, "no shrinkable component away from the wedge")


def _nb_junction_split(
    b: _Builder, a: Vertex, bv: Vertex, seq, depth: int
) -> None:
    """a's deficit neighborhood splits: the b-to-d deficit cycle separates the
    other districts, or both live inside and the tricolor machinery runs."""
    note = "restore-balance"
    p = b.p
    region = p.region
    dvert = None
    seen_gap = False
    for u in seq[1:]:
        if p.district(u) == 3:
            if seen_gap:
                dvert = u
                break
        else:
            seen_gap = True
    if dvert is None:
        raise PathError(note, "no second deficit block at the junction")
    cycp = path_within(region, p.district_set(3), bv, dvert) + [a]
    interior = vertices_enclosed(region, cycp)
    p1_rest = p.district_set(1) - {a}
    if not p1_rest:
        raise PathError(note, "oversized district is a single vertex")
    p1_inside = next(iter(p1_rest)) in interior
    p2_inside = next(iter(p.district_set(2))) in interior
    if p1_inside != p2_inside:
        v, _ = find_shrink_vertex(p, p1_rest, (3,))
        b.flip(v, 3, note)
        return
    if not p1_inside:
        raise PathError(note, "junction cycle encloses neither district")
    _nb_tric(b, depth)


def _nb_tric(b: _Builder, depth: int) -> None:
    """District 2 misses the boundary and district 1 is pinned at one
    boundary vertex; work from the two tricolor faces."""
    note = "restore-balance"
    p = b.p
    region = p.region
    if p.district_set(2) & region.boundary:
        raise PathError(note, "settled district touches the boundary")
    tris = sorted(
        tricolor_triangles(p),
        key=lambda t: (
            t.chirality != "cw",
            min(ordering_index(u) for u in t.vertices),
        ),
    )
    if len(tris) != 2:
        raise PathError(note, f"expected two tricolor faces, got {len(tris)}")
    info = [
        (t.vertex_in(p, 1), t.vertex_in(p, 3), t.vertex_in(p, 2))
        for t in tris
    ]
    for av, bv3, cv2 in info:
        if neighborhood_flip_test(p, av, 3):
            b.flip(av, 3, note)
            return
    pivots = [t for t in info if not region.is_boundary(t[0])]
    for av, bv3, cv2 in pivots:
        if at_most_one_arc(p, av, 1):
            raise PathError(
                note, "deleted sub-case: pivot with a whole district-1 neighborhood"
            )
    if not pivots:
        raise PathError(note, "no workable tricolor pivot")
    for av, bv3, cv2 in pivots:
        e = _nb_gap_vertex(p, av, bv3)
        if p.district(e) == 2:
            _nb_cmach(b, av, cv2, e, depth)
            return
    raise PathError(note, "deleted sub-case: deficit cycle traps district 1")


def _nb_gap_vertex(p: Partition, a: Vertex, bv: Vertex) -> Vertex:
    """A non-district-1 neighbor of a in a different cyclic run than bv,
    preferring district 2."""
    runs = _cyclic_blocks(p.region, a, lambda u: p.district(u) != 1)
    cands = [r for r in runs if bv not in r]
    if not cands:
        raise PathError("restore-balance", "pivot has a single outside run")
    for r in cands:
        for u in r:
            if p.district(u) == 2:
                return u
    return cands[0][0]


def _nb_cmach(
    b: _Builder, av: Vertex, cv: Vertex, e: Vertex, depth: int
) -> None:
    """The settled district reaches av on both sides: work on cv across the
    cv-e-av cycle that traps part of district 1."""
    note = "restore-balance"
    p = b.p
    region = p.region
    cycp = path_within(region, p.district_set(2), cv, e) + [av]
    interior = vertices_enclosed(region, cycp)
    inside = [
        s
        for s in connected_components(region, p.district_set(1) - {av})
        if next(iter(s)) in interior
    ]
    if len(inside) != 1:
        raise PathError(note, f"expected one enclosed component, got {len(inside)}")
    s1 = inside[0]
    if neighborhood_flip_test(p, cv, 3):
        b.flip(cv, 3, note)
        v, to = find_shrink_vertex(b.p, s1, (2, 3))
        b.flip(v, to, note)
        if to == 2:
            return
        _nb_rebalance(b, depth + 1)
        return
    if at_most_one_arc(p, cv, 2):
        raise PathError(note, "settled pivot connected yet unflippable")
    cset = set(cycp) - {cv, av}
    away = [
        s
        for s in connected_components(region, p.district_set(2) - {cv})
        if not (s & cset)
    ]
    if len(away) != 1:
        raise PathError(note, "cut components of the settled pivot not binary")
    s2 = away[0]
    if next(iter(s2)) in interior:
        q, step = cycle_recombine(p, cycp, av, cv, note="cycle-recombine")
        b.extend([step])
        b.flip(cv, 3, note)
        inside2 = [
            s
            for s in connected_components(region, b.p.district_set(1) - {av})
            if next(iter(s)) in interior
        ]
        if len(inside2) != 1:
            raise PathError(note, "recombination left no enclosed component")
        v, _ = find_shrink_vertex(b.p, inside2[0], (2,))
        b.flip(v, 2, note)
        return
    q, steps, outcome = unwind(p, s1, s2, 1, 2, 3, note="unwind")
    b.extend(steps)
    if outcome == "balanced":
        return
    if outcome == "s1-exhausted":
        if neighborhood_flip_test(b.p, av, 3):
            b.flip(av, 3, note)
            return
        raise PathError(
            note, "deleted sub-case: pivot with a whole district-1 neighborhood"
        )
    b.flip(cv, 3, note)
    rem1 = {u for u in s1 if b.p.district(u) == 1}
    v, _ = find_shrink_vertex(b.p, rem1, (2,))
    b.flip(v, 2, note)


# -- public operations ----------------------------------------------------------------


def _corner_roles(p: Partition) -> dict[int, int]:
    """Concrete -> role map sending the district of the anchor corner to 1 and
    the others to 2, 3 in ascending concrete label."""
    r1 = p.district((1, 1))
    rest = sorted({1, 2, 3} - {r1})
    return {r1: 1, rest[0]: 2, rest[1]: 3}


def _check_instance(p: Partition) -> None:
    if p.region.n < MIN_SIDE:
        raise ValueError(f"constructive engine requires side >= {MIN_SIDE}")
    if min(p.targets) < p.region.n:
        raise ValueError("constructive engine requires every target >= side")


def _as_trace(p: Partition, steps: list[RecomStep]) -> Trace:
    trace = Trace(p.labels, steps)
    report = verify_trace(p, trace)
    if not report["ok"]:
        raise PathError(
            "soundness",
            f"emitted trace fails verification at step {report['failed_at']}",
        )
    return trace


def sweep(p: Partition) -> Trace:
    """Drive a balanced partition until the anchor district is nestled at a
    column: C_{<i} inside it and it inside C_{<=i}."""
    _check_instance(p)
    if classify(p) is not BalanceClass.BALANCED:
        raise PathError("sweep", "partition is not balanced")
    b = _Builder(p)
    b.run(_sweep_std, roles=_corner_roles(p))
    return _as_trace(p, b.steps)


def finish_ground(p: Partition) -> Trace:
    """From a post-sweep partition, reach the block state whose districts
    appear in role order along the vertex ordering."""
    _check_instance(p)
    if not in_omega(p):
        raise PathError("block-finish", "partition is not in the window")
    b = _Builder(p)
    b.run(_finish_std, roles=_corner_roles(p))
    return _as_trace(p, b.steps)


def balance_nearly(p: Partition) -> Trace:
    """Drive a nearly balanced partition to a balanced one."""
    _check_instance(p)
    if classify(p) is not BalanceClass.NEARLY_BALANCED:
        raise PathError("restore-balance", "partition is not nearly balanced")
    b = _Builder(p)
    _balance_std(b)
    return _as_trace(p, b.steps)


def _bridge_steps(
    region: TriRegion, targets: Targets, perm_a, perm_b
) -> list[RecomStep]:
    # the block transpositions (<= 3) from block state perm_a to perm_b,
    # found by BFS over the orders of the three blocks
    perm_a, perm_b = tuple(perm_a), tuple(perm_b)
    prev: dict[tuple, tuple | None] = {perm_a: None}
    queue = deque([perm_a])
    while queue and perm_b not in prev:
        cur = queue.popleft()
        for pos in (0, 1):
            nxt = list(cur)
            nxt[pos], nxt[pos + 1] = nxt[pos + 1], nxt[pos]
            nxt = tuple(nxt)
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    chain = [perm_b]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    steps = []
    for cur, nxt in zip(chain, chain[1:]):
        moved_pos = 0 if cur[0] != nxt[0] else 1
        untouched = cur[2] if moved_pos == 0 else cur[0]
        steps.append(
            RecomStep(
                untouched,
                ground_state(region, targets, nxt).labels,
                "block-swap",
            )
        )
    return steps


def ground_path(
    region: TriRegion, targets: Targets, perm_a, perm_b
) -> Trace:
    """Connect two block states by adjacent block transpositions (<= 3
    steps)."""
    start = ground_state(region, targets, tuple(perm_a))
    return _as_trace(start, _bridge_steps(region, targets, perm_a, perm_b))


def _route_to_ground(p: Partition) -> tuple[list[RecomStep], tuple[int, int, int]]:
    """Steps from p to a block state, plus the concrete district order of its
    blocks."""
    b = _Builder(p)
    if classify(b.p) is BalanceClass.NEARLY_BALANCED:
        _balance_std(b)
    b.run(_sweep_std, roles=_corner_roles(b.p))
    roles = _corner_roles(b.p)
    inv = {r: d for d, r in roles.items()}
    b.run(_finish_std, roles=roles)
    return b.steps, (inv[1], inv[2], inv[3])


def path(sigma: Partition, tau: Partition, compress: bool = True) -> Trace:
    """A verified route from sigma to tau through window states."""
    _check_instance(sigma)
    if sigma.region is not tau.region or sigma.targets != tau.targets:
        raise ValueError("endpoints must share region and targets")
    if not in_omega(sigma) or not in_omega(tau):
        raise ValueError("endpoints must lie in the window")
    if sigma.labels == tau.labels:
        return _as_trace(sigma, [])
    fwd, perm_a = _route_to_ground(sigma)
    back, perm_b = _route_to_ground(tau)
    bridge = _bridge_steps(sigma.region, sigma.targets, perm_a, perm_b)
    # The builder validated every step of `back` when it emitted it, so each
    # step's `before` is the previous step's `after`; verify_trace below
    # re-checks the whole returned route and is the only check of the
    # bridge.
    befores = [tau.labels] + [step.after for step in back[:-1]]
    reversed_back = [
        reverse(step, before) for step, before in zip(back, befores)
    ][::-1]
    steps = fwd + bridge + reversed_back
    if compress:
        steps = compress_steps(sigma, steps)
    return _as_trace(sigma, steps)


def compress_steps(source: Partition, steps: list[RecomStep]) -> list[RecomStep]:
    """Merge maximal runs of steps sharing an untouched district into single
    steps and drop runs that compose to the identity."""
    cur_steps = list(steps)
    while True:
        out: list[RecomStep] = []
        cur = source.labels
        idx = 0
        while idx < len(cur_steps):
            j = idx
            while (
                j + 1 < len(cur_steps)
                and cur_steps[j + 1].untouched == cur_steps[idx].untouched
            ):
                j += 1
            after = cur_steps[j].after
            if after != cur:
                # a run of one step is kept as it is
                out.append(
                    cur_steps[idx] if j == idx else RecomStep(
                        cur_steps[idx].untouched, after, cur_steps[idx].note
                    )
                )
                cur = after
            idx = j + 1
        if len(out) == len(cur_steps):
            return out
        cur_steps = out


def verify_trace(source: Partition, trace: Trace) -> dict:
    """Independently re-validate the source and every step of the trace.

    Every state is recomputed here from its labels alone, as three bare
    bitboards (the loop Partition.masks uses): the size window is read from
    their popcounts and simple connectivity from the flood-fill kernel, so
    no validity or class carried by the caller's partitions is consulted.
    The kernel's answers are memoized by mask for this call only; the
    kernel is a pure function of the mask (and the region's column width),
    so a memo hit is exactly the answer a flood fill would give.  A step's
    untouched district is the previous state's mask and always hits.  Only
    the report's `final` is built as a Partition.  A label array of the
    wrong length raises ValueError."""
    if trace.source != source.labels:
        return {"ok": False, "failed_at": -1, "reason": "source mismatch"}
    region, targets = source.region, source.targets
    bits, w, num_vertices = region.bits, region.width, region.num_vertices
    memo: dict[int, bool] = {}

    def in_omega_masks(masks) -> bool:
        for m, k in zip(masks, targets):
            if not -1 <= m.bit_count() - k <= 1:
                return False
        for m in masks:
            ok = memo.get(m)
            if ok is None:
                ok = memo[m] = _simply_connected_mask(m, w)
            if not ok:
                return False
        return True

    labels = source.labels
    cur = _label_masks(bits, labels)
    if not in_omega_masks(cur):
        return {"ok": False, "failed_at": -1, "reason": "source outside the window"}
    for idx, step in enumerate(trace.steps):
        after = step.after
        if len(after) != num_vertices:
            raise ValueError("label array length mismatch")
        after = tuple(after)
        masks = _label_masks(bits, after)
        if (
            after == labels
            or not in_omega_masks(masks)
            or not (masks[0] == cur[0] or masks[1] == cur[1] or masks[2] == cur[2])
        ):
            return {
                "ok": False,
                "failed_at": idx,
                "reason": "not a valid recombination step",
            }
        if masks[step.untouched - 1] != cur[step.untouched - 1]:
            return {
                "ok": False,
                "failed_at": idx,
                "reason": "declared untouched district changed",
            }
        labels, cur = after, masks
    trace.verified = True
    return {
        "ok": True,
        "steps": len(trace.steps),
        "final": Partition._derived(region, targets, labels, cur, True),
        "failed_at": None,
    }

