"""Flip and recombination step semantics: validity, lifting, application,
and inversion."""

import random

import pytest

from trirecom import (
    Partition,
    PathError,
    apply_flip,
    build_region,
    flip_valid,
    ground_state,
    in_omega,
)
from trirecom.moves import (
    RecomStep,
    neighborhood_flip_test,
    reverse,
    untouched_of_flip,
)
from trirecom.partition import BalanceClass, classify, in_window, is_valid
from trirecom.pathfinder import _Builder

from support import (
    apply_recom,
    balanced_targets,
    bfs_is_simply_connected,
    district_set,
    first_window_flip,
    lift_flip,
    random_omega_state,
    recom_valid,
    unclassified,
)


@pytest.fixture(scope="module")
def pool5():
    region = build_region(5)
    rng = random.Random(202)
    return [random_omega_state(region, (5, 5, 5), rng) for _ in range(50)]


def test_untouched_of_flip():
    assert untouched_of_flip(1, 2) == 3
    assert untouched_of_flip(3, 1) == 2
    assert untouched_of_flip(2, 3) == 1


def test_flip_valid_matches_definition(pool5):
    for p in pool5[:15]:
        for v in p.region.vertices:
            frm = p.district(v)
            for to in (1, 2, 3):
                expected = (
                    to != frm
                    and bfs_is_simply_connected(p.region, district_set(p, frm) - {v})
                    and bfs_is_simply_connected(p.region, district_set(p, to) | {v})
                )
                assert flip_valid(p, v, to) == expected


def test_neighborhood_test_implies_flip_valid(pool5):
    positives = 0
    for p in pool5:
        full = unclassified(p)
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if neighborhood_flip_test(p, v, to):
                    positives += 1
                    assert flip_valid(full, v, to)
    assert positives > 100


def test_neighborhood_test_rejects_emptying_a_district():
    # district 1 = {(1, 1)}, district 3 = column 5, the rest district 2:
    # moving (1, 1) to district 2 passes both arc conditions but empties
    # district 1
    region = build_region(5)
    labels = tuple(
        1 if v == (1, 1) else 3 if v[0] == 5 else 2 for v in region.vertices
    )
    p = Partition(region, (1, 9, 5), labels)
    assert in_omega(p)
    assert not flip_valid(p, (1, 1), 2)
    assert not neighborhood_flip_test(p, (1, 1), 2)


def test_neighborhood_test_equals_flip_valid_on_the_n5_window(omega5):
    cases = 0
    for p in omega5:
        full = unclassified(p)
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if to == p.district(v):
                    continue
                cases += 1
                assert neighborhood_flip_test(p, v, to) == flip_valid(full, v, to)
    assert cases == 99_180


def test_flip_valid_on_the_classified_n5_window_equals_full_recomputation(omega5):
    cases = 0
    for p in omega5:
        assert classify(p) is not BalanceClass.OUTSIDE_OMEGA
        full = unclassified(p)
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if to == p.district(v):
                    continue
                cases += 1
                assert flip_valid(p, v, to) == flip_valid(full, v, to)
        assert full._class is None
    assert cases == 99_180


def test_flip_valid_recomputes_on_a_state_classified_outside_the_window():
    # district 1 is the ring of six vertices around the interior vertex
    # (3, 2), which alone is district 2: the local test is not exact here
    region = build_region(5)
    hub = (3, 2)
    ring = set(region.neighbors(hub))
    assert len(ring) == 6
    labels = tuple(
        2 if v == hub else 1 if v in ring else 3 for v in region.vertices
    )
    p = Partition(region, (6, 1, 8), labels)
    assert classify(p) is BalanceClass.OUTSIDE_OMEGA
    full = unclassified(p)
    disagree = 0
    for v in region.vertices:
        frm = p.district(v)
        for to in (1, 2, 3):
            if to == frm:
                continue
            expected = bfs_is_simply_connected(
                region, district_set(p, frm) - {v}
            ) and bfs_is_simply_connected(region, district_set(p, to) | {v})
            assert flip_valid(full, v, to) == expected
            assert flip_valid(p, v, to) == expected, (v, to)
            disagree += neighborhood_flip_test(p, v, to) != expected
    # e.g. a ring vertex joining district 2 breaks the ring: valid, though
    # its own-district slots are two arcs
    assert flip_valid(p, (2, 2), 2) and not neighborhood_flip_test(p, (2, 2), 2)
    assert disagree > 0


def _compare_every_flip(p):
    """(flips compared, valid flips); asserts the local test equals the full
    recomputation on every flip of p."""
    cases = valid = 0
    full = unclassified(p)
    for v in p.region.vertices:
        for to in (1, 2, 3):
            if to == p.district(v):
                continue
            expected = flip_valid(full, v, to)
            assert neighborhood_flip_test(p, v, to) == expected, (p.labels, v, to)
            cases += 1
            valid += expected
    return cases, valid


@pytest.mark.parametrize("n, states", [(6, 60), (16, 30), (24, 15), (32, 8)])
def test_neighborhood_test_equals_flip_valid_on_walk_states(n, states):
    region = build_region(n)
    targets = balanced_targets(n)
    rng = random.Random(6100 + n)
    cases = valid = 0
    for k in range(states):
        # walks of growing length, so shapes range from near-block to ragged
        p = random_omega_state(region, targets, rng, attempts=(k + 1) * 40 * n)
        c, v = _compare_every_flip(p)
        cases += c
        valid += v
    assert cases == states * 2 * region.num_vertices
    assert 0 < valid < cases


@pytest.mark.slow
@pytest.mark.parametrize("targets", [(7, 7, 7), (6, 7, 8)])
def test_neighborhood_test_equals_flip_valid_on_n6_windows(targets):
    from trirecom.oracle import enumerate_omega

    cases = 0
    for p in enumerate_omega(build_region(6), targets, slack=1):
        cases += _compare_every_flip(p)[0]
    assert cases > 1_000_000


def _check_carried_validity(p):
    """(flips checked, valid flips); asserts that every flip of the valid
    partition p carries the breadth-first reference's validity of all three
    districts, and that classifying the flipped state with it equals
    classifying it afresh."""
    assert is_valid(p) and p._valid is True
    region = p.region
    sets = [district_set(p, d) for d in (1, 2, 3)]
    kept = [bfs_is_simply_connected(region, s) for s in sets]
    cases = valid = 0
    for v in region.vertices:
        frm = p.district(v)
        shrunk = bfs_is_simply_connected(region, sets[frm - 1] - {v})
        for to in (1, 2, 3):
            if to == frm:
                continue
            grown = bfs_is_simply_connected(region, sets[to - 1] | {v})
            expected = shrunk and grown and kept[untouched_of_flip(frm, to) - 1]
            q = apply_flip(p, v, to)
            assert q._valid is expected, (p.labels, v, to)
            assert classify(q) is classify(unclassified(q))
            cases += 1
            valid += expected
    return cases, valid


def test_apply_flip_carries_exact_validity_on_the_n5_window(omega5):
    cases = valid = 0
    for p in omega5:
        c, k = _check_carried_validity(p)
        cases += c
        valid += k
    assert cases == 99_180
    assert 0 < valid < cases


def _check_walk_states(n):
    region = build_region(n)
    targets = balanced_targets(n)
    rng = random.Random(7100 + n)
    cases = valid = 0
    for k in range(20):
        p = random_omega_state(region, targets, rng, attempts=(k + 1) * 20 * n)
        c, v = _check_carried_validity(p)
        cases += c
        valid += v
    assert cases == 20 * 2 * region.num_vertices
    assert 0 < valid < cases


@pytest.mark.parametrize("n", [8, 16])
def test_apply_flip_carries_exact_validity_on_walk_states(n):
    _check_walk_states(n)


@pytest.mark.slow
def test_apply_flip_carries_exact_validity_on_n32_walk_states():
    _check_walk_states(32)


def test_apply_flip_leaves_validity_unknown_from_an_unchecked_state(pool5):
    p = unclassified(pool5[0])
    for v in p.region.vertices:
        for to in (1, 2, 3):
            assert apply_flip(p, v, to)._valid is None
    assert p._valid is None
    # a flip to the vertex's own district changes nothing
    v = p.region.vertices[0]
    assert is_valid(p)
    assert apply_flip(p, v, p.district(v))._valid is True


def test_lift_flip_records_untouched_district(pool5):
    for p in pool5[:10]:
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if not flip_valid(p, v, to):
                    continue
                step = lift_flip(p, v, to, "check")
                assert step.note == "check"
                assert step.untouched == untouched_of_flip(p.district(v), to)
                assert step.after == apply_flip(p, v, to).labels


def test_flip_steps_are_recombination_moves(pool5):
    checked = 0
    for p in pool5[:30]:
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if not flip_valid(p, v, to):
                    continue
                q = apply_flip(p, v, to)
                if not in_omega(q):
                    continue
                checked += 1
                assert recom_valid(p, q) and recom_valid(q, p)
                step = lift_flip(p, v, to)
                assert apply_recom(p, step) == q
                back = reverse(step, p.labels)
                assert apply_recom(q, back) == p
                assert back.untouched == step.untouched
    assert checked > 100


def test_recom_valid_rejects_identity_and_mismatched_instances(pool5):
    p = pool5[0]
    assert not recom_valid(p, p)
    other_targets = p.relabeled({1: 2, 2: 1, 3: 3})
    if other_targets.targets == p.targets:
        assert recom_valid(p, other_targets) == any(
            district_set(p, d) == district_set(other_targets, d) for d in (1, 2, 3)
        )


def _refusal(b, states):
    """The text of the builder's refusal to record `states`."""
    with pytest.raises(PathError) as info:
        b.extend(states, "check")
    return str(info.value)


_NOT_A_STEP = "check: step is not a recombination of two districts"


def test_builder_extend_validates_structure(pool5):
    p = pool5[0]
    b = _Builder(p)
    assert _refusal(b, [p.with_labels(p.labels)]) == _NOT_A_STEP
    # a cyclic relabeling moves every vertex, so no district is untouched
    rotated = p.with_labels(tuple(d % 3 + 1 for d in p.labels))
    assert _refusal(b, [rotated]) == _NOT_A_STEP
    # a refused first state leaves the builder as it was
    assert b.steps == [] and b.p is p
    v, to = first_window_flip(p)
    q = apply_flip(p, v, to)
    frozen = _Builder(p, frozen=p.region.bit_of[v])
    assert _refusal(frozen, [q]) == f"check: step reassigns frozen vertex {v}"
    # a later state is checked against the one recorded before it
    assert _refusal(_Builder(p), [q, q]) == _NOT_A_STEP
    # an accepted state is recorded with the one unchanged district
    b.extend([q], "check")
    assert b.p is q
    assert b.steps == [RecomStep(untouched_of_flip(p.district(v), to), q.labels)]
    assert b.steps[0].note == "check"


def test_builder_extend_rejects_states_that_break_a_district(pool5):
    # in-window flips that break a district, as the flipped state carrying
    # its validity and as a copy of unknown validity, on which the builder
    # flood-fills only the two changed districts; and valid flips that leave
    # the window
    broken = left = 0
    for p in pool5[:10]:
        assert is_valid(p)
        full = unclassified(p)
        b = _Builder(p)
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if to == p.district(v):
                    continue
                q = apply_flip(p, v, to)
                if flip_valid(full, v, to):
                    if not in_window(q):
                        assert _refusal(b, [q]) == "check: step leaves the window"
                        left += 1
                    continue
                if not in_window(q):
                    continue
                for state in (q, unclassified(q)):
                    assert _refusal(b, [state]) == "check: step breaks a district"
                broken += 1
    assert broken > 50 and left > 20


def test_recom_steps_may_move_many_vertices(pool5):
    # containment is strict: swapping two whole districts is a recombination
    # move but not a flip
    region = build_region(5)
    a = ground_state(region, (5, 5, 5), (1, 2, 3))
    b = a.relabeled({1: 2, 2: 1, 3: 3})
    assert recom_valid(a, b)
    assert sum(1 for x, y in zip(a.labels, b.labels) if x != y) > 1
