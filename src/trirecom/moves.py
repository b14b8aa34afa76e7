"""Flip and recombination step semantics: validity, application and
inversion.

Two flip checks exist.  neighborhood_flip_test reads only the vertex's six
neighbor slots and is exact on any partition whose districts are simply
connected.  flip_valid answers for any partition: on one known valid (its
carried validity, see partition) it is the local test, and otherwise it
recomputes the simple connectivity of both changed districts.

Applying a flip carries validity forward where it is proved.  apply_flip
derives the flipped state from its parent (one label, two mask updates, see
partition.Partition._derived) and, on a valid parent, stores the local
test's answer on it: the untouched district is unchanged and the local test
decides the two changed ones exactly, so a failing flip stores False.  A
flip walk from a state of unknown validity therefore pays whole-district
flood fills only until its first accepted step is classified; a walk from a
block state (partition.ground_state knows it valid) and a tower from a
valid state pay none.  A recombination step is recorded as the partition
it reaches (see pathfinder._Builder.extend); RecomStep is its form in a
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import ONE_ARC, Vertex
from .partition import Partition, _simply_connected_mask


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
    region = p.region
    frm = p.labels[region.index_of[v]]
    if frm == to:
        return False
    masks = p.masks()
    own = masks[frm - 1]
    if not own & (own - 1):  # v is its district's only vertex
        return False
    m = masks[to - 1]
    if not m & region._neighbor_mask[v]:  # no neighbor in district `to`
        return False
    # both slot patterns (lattice.TriRegion.slot_pattern) from one read of
    # v's six slot bits
    s0, s1, s2, s3, s4, s5 = region._slot_bits[v]
    target = (
        (m & s0 and 1) | (m & s1 and 2) | (m & s2 and 4)
        | (m & s3 and 8) | (m & s4 and 16) | (m & s5 and 32)
    )
    return ONE_ARC[target] and ONE_ARC[
        (own & s0 and 1) | (own & s1 and 2) | (own & s2 and 4)
        | (own & s3 and 8) | (own & s4 and 16) | (own & s5 and 32)
    ]


def apply_flip(p: Partition, v: Vertex, to: int) -> Partition:
    """The partition with v moved to district `to`, derived from p by one
    label and two mask updates.  On a partition known valid the result
    carries its exact validity: the local test's answer, or p's own when
    the move changes nothing."""
    region = p.region
    i = region.index_of[v]
    labels = list(p.labels)
    frm = labels[i]
    labels[i] = to
    bit = region.bits[i]
    m1, m2, m3 = p.masks()
    if frm == 1:
        m1 ^= bit
    elif frm == 2:
        m2 ^= bit
    else:
        m3 ^= bit
    if to == 1:
        m1 |= bit
    elif to == 2:
        m2 |= bit
    else:
        m3 |= bit
    valid = None
    if p._valid:
        valid = frm == to or neighborhood_flip_test(p, v, to)
    return Partition._derived(
        region,
        p.targets,
        tuple(labels),
        (m1, m2, m3),
        valid,
    )


def untouched_of_flip(frm: int, to: int) -> int:
    """The district a flip from district frm to district to leaves alone
    (frm != to)."""
    return 6 - frm - to


def reverse(step: RecomStep, before: tuple[int, ...]) -> RecomStep:
    """The inverse step: applying it to the step's result returns the state
    whose labels are `before`."""
    return RecomStep(step.untouched, before, step.note)
