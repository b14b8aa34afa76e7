"""Flip and recombination step semantics: validity, application and
inversion.

Two flip checks exist.  neighborhood_flip_test reads only the vertex's six
neighbor slots and is exact on any partition whose districts are simply
connected.  flip_valid answers for any partition: on one known valid (its
carried validity, see partition) it is the local test, and otherwise it
recomputes the simple connectivity of both changed districts.

Applying a step carries validity forward where it is proved.  apply_flip
derives the flipped state from its parent (one label, two mask updates, see
partition.Partition._derived) and, on a valid parent, stores the local
test's answer on it: the
untouched district is unchanged and the local test decides the two changed
ones exactly, so a failing flip stores False.  apply_recom on a valid parent
flood-fills only the two districts the step changes, since it has just
checked that the third is unchanged.  A flip walk therefore pays
whole-district flood fills only until its first accepted step is classified,
and a tower from a valid state pays none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import ONE_ARC, Vertex
from .partition import (
    BalanceClass,
    Partition,
    _simply_connected_mask,
    classify,
    in_omega,
)


@dataclass(frozen=True)
class FlipStep:
    vertex: Vertex
    from_district: int
    to_district: int


@dataclass(frozen=True)
class RecomStep:
    """One recombination move: the untouched district plus the complete label
    assignment afterwards (the untouched district's vertex set is unchanged)."""

    untouched: int
    after: tuple[int, ...]
    note: str = field(default="", compare=False)


def flip_valid(p: Partition, v: Vertex, to: int) -> bool:
    """Flip validity for any partition: the shrinking and the growing
    district must both stay nonempty and simply connected.  Size windows are
    the caller's concern.  The local test on a partition known valid, where
    the two are equal; on any other partition it recomputes both districts.
    The check on states nothing else has validated (a flip trial on a
    speculative state, tower resolution, flip walks)."""
    if p._valid:
        return neighborhood_flip_test(p, v, to)
    frm = p.district(v)
    if frm == to:
        return False
    region = p.region
    bit = region.bit_of[v]
    masks = p.masks()
    return _simply_connected_mask(
        masks[frm - 1] & ~bit, region.width
    ) and _simply_connected_mask(masks[to - 1] | bit, region.width)


def neighborhood_flip_test(p: Partition, v: Vertex, to: int) -> bool:
    """Local flip test, from the vertex's six neighbor slots alone.
    Precondition: the vertex's district and the target district are both
    simply connected, as in every valid state; then it equals the full
    recomputation of flip_valid (tests check every flip of the n=5 window
    and of seeded states up to n=32).  The flip is valid when the vertex's
    district has more than one vertex, its own-district slots form one arc
    of the slot cycle, and its target-district slots form one nonempty arc.
    apply_flip stores this test's answer as the validity of a flip from a
    valid state, and the route builder reads it for every flip it emits."""
    frm = p.district(v)
    if frm == to:
        return False
    masks = p.masks()
    own = masks[frm - 1]
    if not own & (own - 1):  # v is its district's only vertex
        return False
    slot_pattern = p.region.slot_pattern
    target = slot_pattern(masks[to - 1], v)
    return bool(target) and ONE_ARC[target] and ONE_ARC[slot_pattern(own, v)]


def apply_flip(p: Partition, v: Vertex, to: int) -> Partition:
    """The partition with v moved to district `to`, derived from p by one
    label and two mask updates.  On a partition known valid the result
    carries its exact validity: the local test's answer, or p's own when
    the move changes nothing."""
    region = p.region
    i = region.index_of[v]
    labels = p.labels
    frm = labels[i]
    bit = region.bits[i]
    masks = [0, *p.masks()]
    masks[frm] ^= bit
    masks[to] |= bit
    valid = None
    if p._valid:
        valid = frm == to or neighborhood_flip_test(p, v, to)
    return Partition._derived(
        region,
        p.targets,
        labels[:i] + (to,) + labels[i + 1 :],
        (masks[1], masks[2], masks[3]),
        valid,
    )


def untouched_of_flip(frm: int, to: int) -> int:
    return ({1, 2, 3} - {frm, to}).pop()


def recom_valid(p: Partition, q: Partition) -> bool:
    """True iff p and q are distinct Omega members sharing one identical
    district."""
    if p.labels == q.labels:
        return False
    if p.region is not q.region or p.targets != q.targets:
        return False
    if not in_omega(p) or not in_omega(q):
        return False
    return any(a == b for a, b in zip(p.masks(), q.masks()))


def apply_recom(p: Partition, step: RecomStep) -> Partition:
    """Apply a recombination step, validating the untouched district and the
    resulting state.  From a partition known valid only the two districts
    the step changes are flood-filled."""
    q = p.with_labels(step.after)
    d = step.untouched - 1
    masks = q.masks()
    if masks[d] != p.masks()[d]:
        raise ValueError("recombination step changes its untouched district")
    if q.labels == p.labels:
        raise ValueError("recombination step must change the partition")
    if p._valid:
        w = q.region.width
        q._valid = all(
            _simply_connected_mask(m, w) for i, m in enumerate(masks) if i != d
        )
    if classify(q) is BalanceClass.OUTSIDE_OMEGA:
        raise ValueError("recombination step leaves Omega")
    return q


def reverse(step: RecomStep, before: tuple[int, ...]) -> RecomStep:
    """The inverse step: applying it to the step's result returns the state
    whose labels are `before`."""
    return RecomStep(step.untouched, before, step.note)
