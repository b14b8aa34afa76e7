"""Golden trace corpus: one sha256 digest per seeded endpoint pair.

Each pair is two `random_omega_state` draws from `random.Random(seed)`, sigma
first.  A routed pair is digested from its compressed steps (`untouched`,
`after`, `note`); a refused pair from its `PathError` branch and message, so
today's refusals are pinned as well.  A change that alters the engine's
behaviour shows up as the list of pair ids whose digest moved.

Regenerate the fixture (only when a trace change is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from trirecom import Partition, PathError, build_region, path
from trirecom.moves import apply_recom
from trirecom.partition import is_valid

from support import random_omega_state

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"

#: (n, targets, flip attempts per state, number of pairs).  The skewed and
#: 1500-attempt groups reach the n >= 7 states the engine refuses today.
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


def test_apply_recom_carries_validity_along_golden_routes():
    # the first routed pairs of each group, raw and compressed: every state
    # apply_recom reaches from a valid one carries the validity a fresh
    # check finds
    routes = steps = 0
    for n, targets, attempts, _ in GROUPS:
        region = build_region(n)
        for i in range(3):
            if routes == 20:
                break
            rng = random.Random(1000 * n + 17 * attempts + i)
            sigma = random_omega_state(region, targets, rng, attempts)
            tau = random_omega_state(region, targets, rng, attempts)
            try:
                traces = [path(sigma, tau, compress=False), path(sigma, tau)]
            except PathError:
                continue
            routes += 1
            for trace in traces:
                cur = sigma
                assert cur._valid is True
                for step in trace.steps:
                    q = apply_recom(cur, step)
                    assert q._valid is is_valid(Partition(region, targets, q.labels))
                    cur = q
                    steps += 1
                assert cur.labels == tau.labels
    assert routes == 20 and steps > 200


def test_corpus_covers_refusals_and_size():
    groups = _load()
    pairs = [p for g in groups.values() for p in g["pairs"]]
    assert len(pairs) >= 200
    assert any(p["outcome"] == "refused" for p in pairs)
    assert set(groups) == {group_name(n, k, a) for n, k, a, _ in GROUPS}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_corpus(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
