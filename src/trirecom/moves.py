"""Flip and recombination step semantics: validity, application, inversion,
and lifting flips into recombination steps."""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import Vertex
from .partition import (
    BalanceClass,
    Partition,
    _simply_connected_mask,
    classify,
    d_neighborhood,
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
    """Authoritative flip validity, by full recomputation: the shrinking and
    the growing district must both stay nonempty and simply connected.  Size
    windows are the caller's concern."""
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
    """Fast local flip test.  Precondition: the vertex's district and the
    target district are both simply connected, as in every valid state.
    Then the flip is valid when the vertex's district has more than one
    vertex, its own-district neighborhood is one arc of the slot cycle, and
    its target-district neighborhood is one nonempty arc (tests check that
    this equals flip_valid on every flip of the n=5 window)."""
    frm = p.district(v)
    if frm == to or p.masks()[frm - 1].bit_count() < 2:
        return False
    _, own_conn = d_neighborhood(p, v, frm)
    to_set, to_conn = d_neighborhood(p, v, to)
    return own_conn and to_conn and bool(to_set)


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
