"""Flip and recombination step semantics: validity, application, inversion,
and lifting flips into recombination steps.

Two flip checks exist.  flip_valid recomputes the simple connectivity of
both changed districts and assumes nothing about the partition; it is the
reference in tests and the check on states the caller has not validated.
neighborhood_flip_test reads only the vertex's six neighbor slots and is
exact on any partition whose districts are simply connected, which is the
route builder's emission-time check.
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
    """Flip validity by full recomputation, for any partition: the shrinking
    and the growing district must both stay nonempty and simply connected.
    Size windows are the caller's concern.  The reference for
    neighborhood_flip_test in tests, and the check on states nothing has
    validated (a flip trial on a speculative state, tower resolution,
    perfbench's state walks)."""
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
    simply connected, as in every valid state; then it equals flip_valid
    (tests check every flip of the n=5 window and of seeded states up to
    n=32).  The flip is valid when the vertex's district has more than one
    vertex, its own-district slots form one arc of the slot cycle, and its
    target-district slots form one nonempty arc.  The route builder checks
    every flip it emits with this test; its steps start from a validated
    state, so each flip keeps every district simply connected."""
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
    return p.with_moves([(v, to)])


def untouched_of_flip(frm: int, to: int) -> int:
    return ({1, 2, 3} - {frm, to}).pop()


def lift_flip(p: Partition, v: Vertex, to: int, note: str = "") -> RecomStep:
    """The flip expressed as a recombination step from p."""
    frm = p.district(v)
    q = apply_flip(p, v, to)
    return RecomStep(untouched_of_flip(frm, to), q.labels, note)


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
    resulting state."""
    q = p.with_labels(step.after)
    d = step.untouched - 1
    if q.masks()[d] != p.masks()[d]:
        raise ValueError("recombination step changes its untouched district")
    if q.labels == p.labels:
        raise ValueError("recombination step must change the partition")
    if classify(q) is BalanceClass.OUTSIDE_OMEGA:
        raise ValueError("recombination step leaves Omega")
    return q


def reverse(step: RecomStep, before: Partition) -> RecomStep:
    """The inverse step: applying it to the step's result returns `before`."""
    return RecomStep(step.untouched, before.labels, step.note)
