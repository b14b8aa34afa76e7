"""Golden trace corpus: one sha256 digest per seeded endpoint pair.

Each pair is two `random_omega_state` draws from `random.Random(seed)`, sigma
first.  A routed pair is digested from its compressed steps (`untouched`,
`after`, `note`); a refused pair from its `PathError` branch and message, so
a refusal shows up as an outcome as well as a digest.  A change that alters
the engine's behaviour shows up as the list of pair ids whose digest moved.

Regenerate the fixture (only when a trace change is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from trirecom import Partition, PathError, Trace, build_region, path, verify_trace
from trirecom.moves import RecomStep
from trirecom.partition import in_omega, is_valid
from trirecom.pathfinder import _Builder

from support import random_omega_state, verify_trace_reference

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"

#: (n, targets, flip attempts per state, number of pairs).  The skewed and
#: 1500-attempt groups reach the n >= 7 states of Cases A and D that the
#: engine refused before those cases made their far-corner and wedge-edge
#: moves.
GROUPS = (
    (5, (5, 5, 5), 300, 40),
    (6, (7, 7, 7), 300, 20),
    (6, (7, 7, 7), 1500, 10),
    (7, (9, 9, 10), 300, 20),
    (7, (10, 9, 9), 1500, 20),
    (7, (7, 10, 11), 1500, 30),
    (8, (12, 12, 12), 300, 15),
    (8, (12, 12, 12), 1500, 10),
    (8, (8, 12, 16), 1500, 35),
)


def group_name(n, targets, attempts) -> str:
    return f"n{n}_k{'-'.join(map(str, targets))}_a{attempts}"


def pair_digest(n, targets, attempts, seed) -> tuple[str, str]:
    """(outcome, sha256) of routing the seeded pair."""
    region = build_region(n)
    rng = random.Random(seed)
    sigma = random_omega_state(region, targets, rng, attempts)
    tau = random_omega_state(region, targets, rng, attempts)
    try:
        trace = path(sigma, tau)
    except PathError as exc:
        outcome, body = "refused", {"branch": exc.branch, "message": str(exc)}
    else:
        outcome = "routed"
        body = [[s.untouched, list(s.after), s.note] for s in trace.steps]
    blob = json.dumps(body, separators=(",", ":")).encode()
    return outcome, hashlib.sha256(blob).hexdigest()


def build_corpus() -> dict:
    groups = {}
    for n, targets, attempts, count in GROUPS:
        pairs = []
        for i in range(count):
            seed = 1000 * n + 17 * attempts + i
            outcome, digest = pair_digest(n, targets, attempts, seed)
            pairs.append({"seed": seed, "outcome": outcome, "digest": digest})
        groups[group_name(n, targets, attempts)] = {
            "n": n,
            "targets": list(targets),
            "attempts": attempts,
            "pairs": pairs,
        }
    return groups


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "name", [group_name(n, k, a) for n, k, a, _ in GROUPS]
)
def test_golden_digests_unchanged(name):
    group = _load()[name]
    moved = []
    for pair in group["pairs"]:
        outcome, digest = pair_digest(
            group["n"], tuple(group["targets"]), group["attempts"], pair["seed"]
        )
        if (outcome, digest) != (pair["outcome"], pair["digest"]):
            moved.append(f"{name}/seed={pair['seed']} ({pair['outcome']} -> {outcome})")
    assert not moved, "golden digests moved: " + ", ".join(moved)


def test_recorded_states_carry_their_validity_along_golden_routes(monkeypatch):
    # every state the route builder records on the corpus routes carries the
    # validity a fresh check finds on a copy built from its labels: the
    # flips' carried answers, the tower and unwinding states toolkit built,
    # and the label-only block steps, whose two changed districts the
    # builder flood-fills
    recorded = []
    record = _Builder._record

    def spy(self, q, untouched, note):
        recorded.append((q, note))
        record(self, q, untouched, note)

    monkeypatch.setattr(_Builder, "_record", spy)
    for n, targets, attempts, count in GROUPS:
        region = build_region(n)
        for i in range(count):
            rng = random.Random(1000 * n + 17 * attempts + i)
            sigma = random_omega_state(region, targets, rng, attempts)
            tau = random_omega_state(region, targets, rng, attempts)
            try:
                path(sigma, tau)
            except PathError:
                pass
    for q, _ in recorded:
        assert q._valid is is_valid(Partition(q.region, q.targets, q.labels)) is True
    notes = {note for _, note in recorded}
    assert {"tower", "unwind", "block-shuffle", "block-finish", "column-swap"} <= notes
    assert len(recorded) > 3000


@pytest.fixture(scope="module")
def corpus_routes():
    """(sigma, trace) for every routed pair of the corpus."""
    routes = []
    for n, targets, attempts, count in GROUPS:
        region = build_region(n)
        for i in range(count):
            rng = random.Random(1000 * n + 17 * attempts + i)
            sigma = random_omega_state(region, targets, rng, attempts)
            tau = random_omega_state(region, targets, rng, attempts)
            try:
                routes.append((sigma, path(sigma, tau)))
            except PathError:
                pass
    return routes


def _decision(verify, source, source_labels, steps):
    """What `verify` decides on a fresh trace: (ok, failed_at, reason,
    final labels), or the type of the exception it raises."""
    try:
        report = verify(source, Trace(source_labels, list(steps)))
    except Exception as exc:  # noqa: BLE001 - the exception is the decision
        return type(exc)
    final = report.get("final")
    return (
        report["ok"],
        report["failed_at"],
        report.get("reason"),
        None if final is None else final.labels,
    )


def _mutations(sigma, steps, rng):
    """Seeded corruptions of a route, one per kind: (kind, source, source
    labels, steps)."""
    region, targets = sigma.region, sigma.targets
    steps = list(steps)
    k = rng.randrange(len(steps))
    step = steps[k]
    nv = region.num_vertices

    def replaced(new_step):
        return steps[:k] + [new_step] + steps[k + 1 :]

    # one label changed in one step
    after = list(step.after)
    i = rng.randrange(nv)
    after[i] = rng.choice([d for d in (1, 2, 3) if d != after[i]])
    out = [("label", replaced(RecomStep(step.untouched, tuple(after))))]
    # a wrong declared untouched district
    wrong = rng.choice([d for d in (1, 2, 3) if d != step.untouched])
    out.append(("untouched", replaced(RecomStep(wrong, step.after))))
    # a dropped step and a repeated step
    out.append(("dropped", steps[:k] + steps[k + 1 :]))
    out.append(("repeated", steps[: k + 1] + [step] + steps[k + 1 :]))
    # a label outside 1..3 in one step
    after = list(step.after)
    after[rng.randrange(nv)] = rng.choice((0, 4, -1))
    out.append(("outside", replaced(RecomStep(step.untouched, tuple(after)))))
    mutated = [(kind, sigma, sigma.labels, s) for kind, s in out]
    # a source outside the window: vertices of sigma moved one at a time
    # until the sizes leave the window or a district breaks
    labels = list(sigma.labels)
    while True:
        i = rng.randrange(nv)
        labels[i] = rng.choice([d for d in (1, 2, 3) if d != labels[i]])
        source = Partition(region, targets, tuple(labels))
        if not in_omega(source):
            break
    mutated.append(("source", source, source.labels, steps))
    return mutated


def test_verify_trace_decides_corpus_routes_as_the_reference(corpus_routes):
    assert len(corpus_routes) >= 180
    for sigma, trace in corpus_routes:
        decision = _decision(verify_trace, sigma, trace.source, trace.steps)
        assert decision[:3] == (True, None, None)
        assert decision == _decision(
            verify_trace_reference, sigma, trace.source, trace.steps
        )


def test_verify_trace_decides_mutated_routes_as_the_reference(corpus_routes):
    rng = random.Random(13)
    kinds: dict[str, set] = {}
    checked = 0
    for sigma, trace in corpus_routes:
        if not trace.steps:
            continue
        for _ in range(2):
            for kind, source, labels, steps in _mutations(sigma, trace.steps, rng):
                decision = _decision(verify_trace, source, labels, steps)
                assert decision == _decision(
                    verify_trace_reference, source, labels, steps
                ), (kind, sigma.labels)
                kinds.setdefault(kind, set()).add(
                    decision if isinstance(decision, type) else decision[:3]
                )
                checked += 1
    assert checked >= 2000
    assert set(kinds) == {
        "label", "untouched", "dropped", "repeated", "outside", "source",
    }
    # every kind is refused somewhere, and every label outside 1..3 raises
    for kind, decisions in kinds.items():
        assert any(d != (True, None, None) for d in decisions), kind
    assert kinds["source"] == {(False, -1, "source outside the window")}
    assert kinds["outside"] == {ValueError}


def test_verify_trace_and_the_reference_raise_on_a_wrong_label_length(
    corpus_routes,
):
    sigma, trace = corpus_routes[0]
    for cut in (trace.steps[0].after[:-1], trace.steps[0].after + (1,)):
        steps = [RecomStep(trace.steps[0].untouched, cut), *trace.steps[1:]]
        for verify in (verify_trace, verify_trace_reference):
            with pytest.raises(ValueError, match="label array length"):
                verify(sigma, Trace(sigma.labels, steps))


def test_verify_trace_raises_on_a_source_label_or_untouched_outside_1_to_3(
    corpus_routes,
):
    # the step labels are covered by the "outside" mutations above
    sigma, trace = corpus_routes[0]
    for bad in (0, 4, -1, -2):
        # _derived skips the constructor's label check, so the source
        # reaches verify_trace's own
        source = Partition._derived(
            sigma.region, sigma.targets, (bad, *sigma.labels[1:])
        )
        with pytest.raises(ValueError, match="1..3"):
            verify_trace(source, Trace(source.labels, trace.steps))
        steps = [RecomStep(bad, trace.steps[0].after), *trace.steps[1:]]
        with pytest.raises(ValueError, match="1..3"):
            verify_trace(sigma, Trace(sigma.labels, steps))


def test_corpus_routes_a_pair_of_each_group_and_size():
    groups = _load()
    pairs = [p for g in groups.values() for p in g["pairs"]]
    assert len(pairs) >= 200
    for name, group in groups.items():
        assert any(p["outcome"] == "routed" for p in group["pairs"]), name
    assert set(groups) == {group_name(n, k, a) for n, k, a, _ in GROUPS}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_corpus(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
