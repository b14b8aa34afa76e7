"""Constructive engine: sweeping to block states, nearly-balanced repair,
block-state bridging, end-to-end path construction, compression, and trace
verification."""

import itertools
import random

import pytest

from trirecom import (
    PathError,
    Trace,
    apply_flip,
    build_region,
    flip_valid,
    ground_state,
    in_omega,
    path,
    verify_trace,
)
from trirecom.moves import RecomStep, apply_recom, untouched_of_flip
from trirecom.partition import BalanceClass, classify, ground_states
from trirecom.pathfinder import (
    MIN_SIDE,
    _Builder,
    _first_success,
    balance_nearly,
    compress_steps,
    finish_ground,
    ground_path,
    sweep,
)

from support import TARGETS_BY_SIDE, random_omega_state


@pytest.fixture(scope="module")
def pool5():
    region = build_region(5)
    rng = random.Random(404)
    return [random_omega_state(region, (5, 5, 5), rng) for _ in range(60)]


def _replay(p, trace):
    cur = p
    for step in trace.steps:
        cur = apply_recom(cur, step)
    return cur


def _block_partition(region, targets):
    from trirecom import Partition

    labels = []
    for d, size in zip((1, 2, 3), targets):
        labels.extend([d] * size)
    return Partition(region, tuple(targets), tuple(labels))


def test_small_instances_are_rejected():
    region = build_region(MIN_SIDE - 1)
    p = _block_partition(region, (3, 3, 4))
    with pytest.raises(ValueError):
        sweep(p)
    with pytest.raises(ValueError):
        path(p, p)


def test_min_targets_are_rejected():
    # every target must be at least the side length
    region = build_region(6)
    p = _block_partition(region, (5, 8, 8))
    with pytest.raises(ValueError):
        sweep(p)


def test_sweep_and_finish_reach_a_block_state(pool5):
    region = build_region(5)
    blocks = {p.labels for p in ground_states(region, (5, 5, 5)).values()}
    for p in pool5[:25]:
        if classify(p) is not BalanceClass.BALANCED:
            continue
        t1 = sweep(p)
        assert t1.verified
        mid = _replay(p, t1)
        t2 = finish_ground(mid)
        assert t2.verified
        final = _replay(mid, t2)
        assert final.labels in blocks


def test_finish_ground_rejects_a_state_outside_the_window():
    # the step builder's local flip test needs a valid starting state
    region = build_region(5)
    block = ground_state(region, (5, 5, 5), (1, 2, 3))
    split = block.with_moves([((1, 1), 3)])  # district 3 in two pieces
    assert not in_omega(split)
    with pytest.raises(PathError, match="block-finish: partition is not in"):
        finish_ground(split)


def test_balance_nearly_restores_balance(pool5):
    repaired = 0
    for p in pool5:
        if classify(p) is not BalanceClass.NEARLY_BALANCED:
            continue
        trace = balance_nearly(p)
        assert trace.verified
        final = _replay(p, trace)
        assert final.sizes() == final.targets
        repaired += 1
    assert repaired >= 10


def test_balance_nearly_rejects_balanced_states(pool5):
    p = ground_state(build_region(5), (5, 5, 5), (1, 2, 3))
    with pytest.raises(PathError):
        balance_nearly(p)


def test_ground_path_lengths():
    region = build_region(5)
    targets = (5, 5, 5)
    perms = list(itertools.permutations((1, 2, 3)))
    for a in perms:
        for b in perms:
            trace = ground_path(region, targets, a, b)
            assert trace.verified
            swaps = sum(1 for x, y in zip(a, b) if x != y)
            if a == b:
                assert len(trace) == 0
            elif swaps == 2 and (
                (a[0], a[1]) == (b[1], b[0]) or (a[1], a[2]) == (b[2], b[1])
            ):
                assert len(trace) == 1  # adjacent block transposition
            else:
                assert 1 <= len(trace) <= 3
            final = _replay(ground_state(region, targets, a), trace)
            assert final == ground_state(region, targets, b)


def test_path_roundtrip_random_pairs(pool5):
    rng = random.Random(1)
    for _ in range(60):
        sigma = pool5[rng.randrange(len(pool5))]
        tau = pool5[rng.randrange(len(pool5))]
        trace = path(sigma, tau)
        assert trace.verified
        report = verify_trace(sigma, trace)
        assert report["ok"]
        assert report["final"].labels == tau.labels


def test_path_identity_and_mismatch(pool5):
    p = pool5[0]
    assert len(path(p, p)) == 0
    other = ground_state(build_region(6), (7, 7, 7), (1, 2, 3))
    with pytest.raises(ValueError):
        path(p, other)


def test_path_is_deterministic(pool5):
    sigma, tau = pool5[3], pool5[7]
    t1 = path(sigma, tau)
    t2 = path(sigma, tau)
    assert t1.source == t2.source
    assert [(s.untouched, s.after, s.note) for s in t1.steps] == [
        (s.untouched, s.after, s.note) for s in t2.steps
    ]


def test_path_uncompressed_steps_replay(pool5):
    sigma, tau = pool5[2], pool5[9]
    trace = path(sigma, tau, compress=False)
    assert trace.verified
    assert _replay(sigma, trace).labels == tau.labels


def test_larger_sides():
    for n in (6, 7):
        region = build_region(n)
        targets = TARGETS_BY_SIDE[n]
        rng = random.Random(n)
        states = [random_omega_state(region, targets, rng) for _ in range(6)]
        for sigma, tau in zip(states, states[1:]):
            trace = path(sigma, tau)
            assert trace.verified
            assert _replay(sigma, trace).labels == tau.labels


def test_compress_steps_merges_runs(pool5):
    sigma, tau = pool5[5], pool5[11]
    raw = path(sigma, tau, compress=False).steps
    compressed = compress_steps(sigma, raw)
    # no two consecutive steps share an untouched district and no identities
    cur = sigma.labels
    for a, b in zip(compressed, compressed[1:]):
        assert a.untouched != b.untouched
    for step in compressed:
        assert step.after != cur
        cur = step.after
    assert cur == tau.labels
    # compression is idempotent
    assert compress_steps(sigma, compressed) == compressed
    assert len(compressed) <= len(raw)


def test_verify_trace_detects_corruption(pool5):
    sigma, tau = pool5[4], pool5[13]
    trace = path(sigma, tau)
    if len(trace) == 0:
        pytest.skip("sampled endpoints coincide")
    # corrupt one step: claim a different untouched district
    bad_steps = list(trace.steps)
    step = bad_steps[0]
    wrong = (step.untouched % 3) + 1
    bad_steps[0] = RecomStep(wrong, step.after, step.note)
    report = verify_trace(sigma, Trace(trace.source, bad_steps))
    if report["ok"]:
        # the move happened to keep that district fixed too; corrupt labels
        mutated = list(step.after)
        mutated[0] = (mutated[0] % 3) + 1
        bad_steps[0] = RecomStep(step.untouched, tuple(mutated), step.note)
        report = verify_trace(sigma, Trace(trace.source, bad_steps))
    assert not report["ok"]
    assert report["failed_at"] == 0
    # wrong source is rejected up front
    report = verify_trace(tau, trace) if tau.labels != sigma.labels else None
    if report is not None:
        assert not report["ok"] and report["failed_at"] == -1


# -- the step builder: frames, rollback, candidate loops ----------------------

#: (reflect, turns) for the identity, the reflection and both rotations.
GEOMETRIES = ((False, 0), (True, 0), (False, 1), (False, 2))
FRAMES = [
    (dict(zip((1, 2, 3), perm)), reflect, turns)
    for perm in itertools.permutations((1, 2, 3))
    for reflect, turns in GEOMETRIES
]


def _first_valid_flip(p):
    for v in p.region.vertices:
        for to in (1, 2, 3):
            if flip_valid(p, v, to) and in_omega(apply_flip(p, v, to)):
                return v, to
    raise AssertionError("no valid flip")


def _frame_inverse(region, frame, v, d):
    """Pull a vertex and a district of a frame's image back to its source."""
    roles, reflect, turns = frame
    for _ in range(-turns % 3):
        v = region.rotate(v)
    if reflect:
        v = region.reflect(v)
    return v, {r: c for c, r in roles.items()}[d]


def test_builder_records_nested_frame_flips_in_root_labels(pool5):
    p = pool5[0]
    region = p.region
    for outer in FRAMES:
        for inner in FRAMES:
            b = _Builder(p)
            made = []

            def flip_once(sub):
                v, to = _first_valid_flip(sub.p)
                sub.flip(v, to, "framed")
                made.append((v, to))

            def nest(sub):
                roles, reflect, turns = inner
                sub.run(flip_once, roles=roles, reflect=reflect, turns=turns)

            roles, reflect, turns = outer
            b.run(nest, roles=roles, reflect=reflect, turns=turns)
            v, to = made[0]
            v, to = _frame_inverse(region, inner, v, to)
            v, to = _frame_inverse(region, outer, v, to)
            q = apply_flip(p, v, to)
            assert b.steps == [
                RecomStep(untouched_of_flip(p.district(v), to), q.labels)
            ]
            assert b.steps[0].note == "framed"
            assert b.p == q
            assert b.p.labels == b.steps[-1].after


def test_builder_flip_accepts_exactly_the_valid_window_flips(pool5):
    # the builder checks a flip locally plus the size window; the reference
    # is the full recomputation plus classification of the flipped state
    outcomes = {"ok": 0, "is not valid": 0, "leaves the window": 0}
    for p in pool5[:20]:
        for v in p.region.vertices:
            for to in (1, 2, 3):
                if to == p.district(v):
                    continue
                b = _Builder(p)
                q = apply_flip(p, v, to)
                if flip_valid(p, v, to) and in_omega(q):
                    b.flip(v, to, "check")
                    assert b.p == q and len(b.steps) == 1
                    outcomes["ok"] += 1
                    continue
                expected = (
                    "leaves the window" if flip_valid(p, v, to) else "is not valid"
                )
                with pytest.raises(PathError, match=expected):
                    b.flip(v, to, "check")
                assert b.p is p and b.steps == []
                outcomes[expected] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_attempt_rolls_back_a_failed_run(pool5):
    p = pool5[0]
    b = _Builder(p)
    v, to = _first_valid_flip(p)
    b.flip(v, to, "kept")
    steps, state = list(b.steps), b.p
    boom = PathError("test", "after one flip")

    def emit_then_fail(sub):
        sub.flip(*_first_valid_flip(sub.p), "dropped")
        raise boom

    assert b.attempt(emit_then_fail) is boom
    assert b.steps == steps and [s.note for s in b.steps] == ["kept"]
    assert b.p is state
    # the same inside a reflected frame
    assert b.attempt(lambda sub: sub.run(emit_then_fail, reflect=True)) is boom
    assert b.steps == steps and b.p is state
    assert b.attempt(lambda sub: None) is None


def test_first_success_raises_the_first_error(pool5):
    p = pool5[0]
    b = _Builder(p)
    errors = {c: PathError("test", f"candidate {c}") for c in (1, 2, 3)}

    def fail(sub, c):
        sub.flip(*_first_valid_flip(sub.p), f"candidate {c}")
        raise errors[c]

    with pytest.raises(PathError) as info:
        _first_success(b, fail, [(1,), (2,), (3,)])
    assert info.value is errors[1]
    assert b.steps == [] and b.p is p

    def second_wins(sub, c):
        sub.flip(*_first_valid_flip(sub.p), f"candidate {c}")
        if c != 2:
            raise errors[c]

    _first_success(b, second_wins, [(1,), (2,), (3,)])
    assert [s.note for s in b.steps] == ["candidate 2"]
