"""Shared test helpers: random state samplers, boundary-run utilities, and the
reference definitions the program is checked against.  These are simple
connectivity (breadth-first search, and the bitboard kernel over a vertex
set), connectivity, cut and exposed vertices, recombination validity on
states rebuilt from their labels, simply connected subsets and the window by
filtering every labelling, tricolor triangles (a scan over every face), the
route builder's vertex-set scans that now run on bitboards (removable
vertices, rebalance case dispatch, district adjacency, first open column),
the replay of a trace step from labels, and trace verification (one
classified Partition per state).  The program holds vertex sets only as
bitboards; the frozenset views here (districts, components by breadth-first
search, the boundary and the columns) are the references its bitboard answers
are compared with."""

from __future__ import annotations

import itertools
import random
from collections import deque

from trirecom import (
    Partition,
    apply_flip,
    build_region,
    flip_valid,
    ground_state,
    in_omega,
)
from trirecom.lattice import OUTSIDE, ordering_index
from trirecom.moves import RecomStep, neighborhood_flip_test, untouched_of_flip
from trirecom.oracle import _anchored_masks
from trirecom.partition import (
    BalanceClass,
    TricolorTriangle,
    _simply_connected_mask,
    at_most_one_arc,
    classify,
)

#: Balanced target vectors used for sampled instances at each side length.
TARGETS_BY_SIDE = {
    5: (5, 5, 5),
    6: (7, 7, 7),
    7: (9, 9, 10),
    8: (12, 12, 12),
}


def district_set(p: Partition, d: int) -> frozenset:
    """District d of p as a vertex set, read from the labels."""
    return frozenset(
        v for v, lab in zip(p.region.vertices, p.labels) if lab == d
    )


def boundary_vertices(region) -> frozenset:
    """The region vertices with a neighbor slot outside the region."""
    return frozenset(
        v for v in region.vertices if OUTSIDE in region.neighbors_cyclic(v)
    )


def column(region, i: int) -> frozenset:
    """Vertices of the i-th column, 1-based."""
    return frozenset(v for v in region.vertices if v[0] == i)


def columns_leq(region, i: int) -> frozenset:
    """Vertices of columns 1..i, for i >= 0."""
    return frozenset(v for v in region.vertices if v[0] <= i)


def connected_components(region, vset) -> list[frozenset]:
    """Connected components of the subgraph induced by vset, by
    breadth-first search: the reference for TriRegion.components."""
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


def component_of(region, vset, v) -> frozenset:
    """The connected component of v inside vset (v must be in vset), by
    breadth-first search: the reference for TriRegion.component."""
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


def bfs_is_simply_connected(region, vset) -> bool:
    """Reference definition by breadth-first search: vset is nonempty and
    connected, and every component of its complement reaches the region
    boundary (all boundary-touching components merge through the exterior)."""
    vset = set(vset)
    if not vset or not is_connected(region, vset):
        return False
    complement = set(region.vertices) - vset
    boundary = boundary_vertices(region)
    return all(
        comp & boundary for comp in connected_components(region, complement)
    )


def is_connected(region, vset) -> bool:
    """vset is nonempty and connected."""
    vset = set(vset)
    if not vset:
        return False
    return len(component_of(region, vset, next(iter(vset)))) == len(vset)


def is_simply_connected(region, vset) -> bool:
    """The flood-fill kernel on a vertex set: true iff vset is nonempty,
    connected, and encloses no complement vertex."""
    return _simply_connected_mask(region.mask_of(vset), region.width)


def is_cut_vertex(p: Partition, v) -> bool:
    """True iff removing v disconnects its district, equivalently its
    own-district neighborhood is not one contiguous arc."""
    return not at_most_one_arc(p, v, p.district(v))


def is_exposed(p: Partition, v) -> bool:
    """True iff some neighbor of v lies in another district: the slot
    pattern of v's own district differs from that of the whole region."""
    region = p.region
    own = region.slot_pattern(p.masks()[p.district(v) - 1], v)
    return own != region.slot_pattern(region.full_mask, v)


def exposed_vertices(p: Partition, d: int) -> frozenset:
    """Vertices of district d adjacent to a different district."""
    out = set()
    for v in district_set(p, d):
        for u in p.region.neighbors(v):
            if p.district(u) != d:
                out.add(v)
                break
    return frozenset(out)


def recom_valid(p: Partition, q: Partition) -> bool:
    """True iff p and q are distinct window states of one instance sharing
    one identical district, both classified afresh from their labels."""
    if p.labels == q.labels:
        return False
    if p.region is not q.region or p.targets != q.targets:
        return False
    p, q = unclassified(p), unclassified(q)
    if not in_omega(p) or not in_omega(q):
        return False
    return any(a == b for a, b in zip(p.masks(), q.masks()))


def simply_connected_subsets(region, sizes: set[int], allowed=None):
    """All simply connected subsets of `allowed` (default: every vertex) whose
    size lies in `sizes`, as vertex sets, by the enumerator's anchored growth
    (oracle._anchored_masks)."""
    if not sizes:
        return
    allowed_mask = (
        region.full_mask if allowed is None else region.mask_of(allowed)
    )
    for m in _anchored_masks(region.width, sizes, allowed_mask, allowed_mask):
        yield frozenset(region.vertices_of(m))


def enumerate_omega_bruteforce(region, targets, slack: int = 1) -> list[Partition]:
    """Reference for oracle.enumerate_omega: filter all 3^N labelings.  Only
    for tiny n."""
    if region.num_vertices > 12:
        raise ValueError("brute-force labeling only supported for tiny regions")
    out = []
    windows = [set(range(k - slack, k + slack + 1)) for k in targets]
    for labels in itertools.product((1, 2, 3), repeat=region.num_vertices):
        p = Partition(region, targets, labels)
        if any(sz not in w for sz, w in zip(p.sizes(), windows)):
            continue
        if all(_simply_connected_mask(m, region.width) for m in p.masks()):
            out.append(p)
    out.sort(key=lambda p: p.labels)
    return out


def scan_tricolor_triangles(p: Partition) -> list[TricolorTriangle]:
    """Reference for partition.tricolor_triangles: every face of
    region.faces, in order, whose three vertices lie in three districts;
    chirality 'cw' when labels 1, 2, 3 read clockwise around the face."""
    out = []
    for face in p.region.faces:
        labs = tuple(p.district(v) for v in face)
        if len(set(labs)) == 3:
            # rotate so district 1 comes first, read the clockwise order
            i = labs.index(1)
            cw = labs[i:] + labs[:i]
            chir = "cw" if cw == (1, 2, 3) else "ccw"
            out.append(TricolorTriangle(face, chir))
    return out


def removables_reference(p: Partition, cands) -> list:
    """Reference for pathfinder._removables on a vertex set: (vertex,
    target) for the exposed non-cut candidates, in ascending ordering index,
    with a valid flip to district 3 (preferred) or district 2."""
    out = []
    for v in sorted(cands, key=ordering_index):
        if not is_exposed(p, v) or is_cut_vertex(p, v):
            continue
        if neighborhood_flip_test(p, v, 3):
            out.append((v, 3))
        elif neighborhood_flip_test(p, v, 2):
            out.append((v, 2))
    return out


def districts_adjacent_reference(p: Partition, d1: int, d2: int) -> bool:
    """Reference for partition.districts_adjacent: some district-d1 vertex
    has a district-d2 neighbor."""
    s2 = district_set(p, d2)
    return any(
        u in s2 for v in district_set(p, d1) for u in p.region.neighbors(v)
    )


def case_dispatch_reference(p: Partition):
    """Reference for partition.case_dispatch on vertex sets: the letter of
    the one case that holds, or None when the four flags do not single one
    out (case_dispatch then fails its assertion)."""
    bd = boundary_vertices(p.region)
    p2b = district_set(p, 2) & bd
    p3b = district_set(p, 3) & bd
    case_a = any(u in p3b for v in p2b for u in p.region.neighbors(v))
    case_b = not p2b
    case_c = not p3b
    case_d = not districts_adjacent_reference(p, 2, 3)
    flags = [case_a, case_b, case_c, case_d]
    return "ABCD"[flags.index(True)] if sum(flags) == 1 else None


def first_open_column_reference(p: Partition) -> int:
    """Reference for pathfinder._first_open_column: the first column that
    is not inside district 1."""
    region = p.region
    s1 = district_set(p, 1)
    return next(
        j for j in range(1, region.n + 1) if not column(region, j) <= s1
    )


def unclassified(p: Partition) -> Partition:
    """A copy of p built from its labels alone, without the validity and
    the classification p may carry, so flip_valid on the copy runs the full
    recomputation and classify on it flood-fills every district: the
    reference for the local flip test and for carried validity."""
    return Partition(p.region, p.targets, p.labels)


def verify_trace_reference(source: Partition, trace) -> dict:
    """Reference for pathfinder.verify_trace: every state is rebuilt as a
    Partition from its labels and classified, so no validity or class
    carried by the caller's partitions is consulted."""
    if trace.source != source.labels:
        return {"ok": False, "failed_at": -1, "reason": "source mismatch"}
    cur = Partition(source.region, source.targets, trace.source)
    if not in_omega(cur):
        return {"ok": False, "failed_at": -1, "reason": "source outside the window"}
    for idx, step in enumerate(trace.steps):
        # each state is classified once, as q; cur was the previous q
        q = Partition(source.region, source.targets, step.after)
        if (
            q.labels == cur.labels
            or not in_omega(q)
            or not any(a == b for a, b in zip(cur.masks(), q.masks()))
        ):
            return {
                "ok": False,
                "failed_at": idx,
                "reason": "not a valid recombination step",
            }
        if q.masks()[step.untouched - 1] != cur.masks()[step.untouched - 1]:
            return {
                "ok": False,
                "failed_at": idx,
                "reason": "declared untouched district changed",
            }
        cur = q
    trace.verified = True
    return {
        "ok": True,
        "steps": len(trace.steps),
        "final": cur,
        "failed_at": None,
    }


def lift_flip(p: Partition, v, to: int, note: str = "") -> RecomStep:
    """The flip expressed as a recombination step from p."""
    q = apply_flip(p, v, to)
    return RecomStep(untouched_of_flip(p.district(v), to), q.labels, note)


def first_window_flip(p: Partition):
    """(vertex, target) of the first valid flip of p, in vertex order, that
    stays in the window."""
    for v in p.region.vertices:
        for to in (1, 2, 3):
            if flip_valid(p, v, to) and in_omega(apply_flip(p, v, to)):
                return v, to
    raise AssertionError("no valid flip")


def apply_recom(p: Partition, step: RecomStep) -> Partition:
    """Replay a trace step from labels: the state with the step's labels,
    classified from scratch, after checking that the step changes p, keeps
    its declared untouched district and stays in the window (ValueError
    otherwise).  The reference for replaying routes; the route builder
    records the partitions it built instead (pathfinder._Builder.extend)."""
    q = p.with_labels(step.after)
    d = step.untouched - 1
    if q.masks()[d] != p.masks()[d]:
        raise ValueError("recombination step changes its untouched district")
    if q.labels == p.labels:
        raise ValueError("recombination step must change the partition")
    if classify(q) is BalanceClass.OUTSIDE_OMEGA:
        raise ValueError("recombination step leaves Omega")
    return q


def balanced_targets(n: int) -> tuple[int, int, int]:
    """Targets as equal as possible, the larger ones last."""
    total = n * (n + 1) // 2
    q, r = divmod(total, 3)
    return tuple(q + (i >= 3 - r) for i in range(3))


def random_omega_state(region, targets, rng: random.Random, attempts: int = 300):
    """A pseudo-random window state: a single-vertex-flip walk from a random
    block state, keeping only moves that stay inside the window."""
    perms = list(itertools.permutations((1, 2, 3)))
    p = ground_state(region, targets, perms[rng.randrange(6)])
    return flip_walk(p, rng, attempts)


def flip_walk(p: Partition, rng: random.Random, attempts: int):
    """`attempts` random single-vertex flip proposals from p, taking each
    valid flip that stays inside the window.  A proposal is checked by
    flip_valid before it is applied, so a refused one copies no labels.  A
    block state is known valid and apply_flip carries validity, so a walk
    from one runs only the local flip test; from a state of unknown
    validity it recomputes both changed districts until its first accepted
    step."""
    verts = p.region.vertices
    for _ in range(attempts):
        v = verts[rng.randrange(len(verts))]
        to = rng.randrange(1, 4)
        if to != p.district(v) and flip_valid(p, v, to):
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
    boundary = boundary_vertices(region)
    interior = [v for v in region.vertices if v not in boundary]
    size3 = rng.randrange(1, len(interior) + 1)
    start = interior[rng.randrange(len(interior))]
    s3 = {start}
    while len(s3) < size3:
        frontier = [
            u
            for v in s3
            for u in region.neighbors(v)
            if u not in s3 and u not in boundary
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


def random_interior_state(region, rng: random.Random):
    """An in-domain random_interior_tripartition state: draws repeat until
    every realized target is at least the side, the districts are relabeled
    at random, and half of the states are then flip-walked inside their
    window for 50 to 2,000 attempts."""
    while True:
        p = random_interior_tripartition(region, rng)
        if p is not None and min(p.targets) >= region.n:
            break
    p = p.relabeled(dict(zip((1, 2, 3), rng.sample((1, 2, 3), 3))))
    if rng.random() < 0.5:
        p = flip_walk(p, rng, rng.randint(50, 2000))
    return p


def _grow(region, rng: random.Random, seed, size: int, pool, avoid, thin: bool):
    """Grow `seed` toward `size` vertices of `pool` outside `avoid`, keeping
    the grown set and the rest of the pool simply connected.  A thin growth
    extends an induced path from its last vertex; otherwise any frontier
    vertex may join.  Returns the grown vertices in insertion order, short
    when the growth dead-ends."""
    grown = list(seed)
    members = set(grown)
    for _ in range(8 * size):
        if len(grown) >= size:
            break
        if thin:
            end = grown[-1]
            frontier = [
                u
                for u in region.neighbors(end)
                if u in pool
                and u not in avoid
                and u not in members
                and all(w == end or w not in members for w in region.neighbors(u))
            ]
        else:
            frontier = sorted(
                {
                    u
                    for v in grown
                    for u in region.neighbors(v)
                    if u in pool and u not in avoid and u not in members
                }
            )
        if not frontier:
            break
        c = frontier[rng.randrange(len(frontier))]
        if is_simply_connected(region, members | {c}) and is_simply_connected(
            region, pool - members - {c}
        ):
            grown.append(c)
            members.add(c)
        elif thin:
            break
    return grown


def random_all_corner_state(region, rng: random.Random, junction=False):
    """A nearly balanced in-domain state whose deficit district holds all
    three corners.

    The oversized district grows from a random non-corner vertex, half of
    the time as an induced path and otherwise as a simply connected blob.
    The settled district grows next to it, half of the time seeded with
    every free neighbor of the oversized district's first or last vertex, so
    that a path end is buried in it.  The deficit district is the rest; it
    keeps at least 2n - 1 vertices, about what joining the three corners
    takes.  Districts are relabeled at random.

    `junction` aims at the repair's boundary-junction branches: the path
    always starts on the boundary and its last vertex is always buried."""
    n = region.n
    room = region.num_vertices - (2 * n - 1)  # for the other two districts
    corners = frozenset(region.corners)
    starts = sorted(
        (boundary_vertices(region) if junction else region.vertex_set) - corners
    )
    while True:
        thin = junction or rng.random() < 0.5
        size1 = rng.randint(n + 1, room - n)
        start = starts[rng.randrange(len(starts))]
        s1 = _grow(region, rng, [start], size1, region.vertex_set, corners, thin)
        if len(s1) != size1:
            continue
        pool = region.vertex_set - frozenset(s1)
        end = s1[-1] if junction or rng.random() < 0.5 else s1[0]
        open_nbrs = sorted(
            u for u in region.neighbors(end) if u in pool and u not in corners
        )
        if (junction or rng.random() < 0.5) and open_nbrs and is_simply_connected(
            region, open_nbrs
        ):
            seed2 = open_nbrs
        else:
            touching = sorted(
                {
                    u
                    for v in s1
                    for u in region.neighbors(v)
                    if u in pool and u not in corners
                }
            )
            seed2 = [touching[rng.randrange(len(touching))]]
        if len(seed2) > room - size1:
            continue
        size2 = rng.randint(max(n, len(seed2)), room - size1)
        s2 = _grow(region, rng, seed2, size2, pool, corners, False)
        if len(s2) != size2:
            continue
        labels = [3] * region.num_vertices
        for v in s1:
            labels[region.index_of[v]] = 1
        for v in s2:
            labels[region.index_of[v]] = 2
        size3 = region.num_vertices - size1 - size2
        p = Partition(region, (size1 - 1, size2, size3 + 1), tuple(labels))
        if classify(p) is not BalanceClass.NEARLY_BALANCED:
            continue
        return p.relabeled(dict(zip((1, 2, 3), rng.sample((1, 2, 3), 3))))


def random_junction_state(region, rng: random.Random):
    """random_all_corner_state aimed at the boundary-junction branches."""
    return random_all_corner_state(region, rng, junction=True)


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
