"""The n=6 window states the engine once refused now route.

`tests/fixtures/n6_refusals.json` lists, one per line, each state of the n=6
windows with targets (7, 7, 7), (6, 7, 8) and (6, 6, 9) (slack 1) that
`path` refused to route to the block state (1, 2, 3) at commit `267c323`:
its targets, its labels and that `PathError` text.  Before Cases A and D
made the moves of their far-corner and wedge-edge configurations, those
cases tried one boundary pair after another and still refused these
states.  The Tier-1 tests route each recorded state and a seeded slice of
the all-corner sampler at n=7, which refused about one state in ten then;
the opt-in slow test routes every state of every order of the three n=6
windows.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from trirecom import Partition, build_region, enumerate_omega, ground_state, path

from support import random_all_corner_state

FIXTURE = Path(__file__).parent / "fixtures" / "n6_refusals.json"
N = 6
WINDOWS = ((7, 7, 7), (6, 7, 8), (6, 6, 9))


def _routes(p: Partition) -> bool:
    """`path` returns a verified route from p that ends at its block state
    (1, 2, 3); a refusal raises PathError."""
    block = ground_state(p.region, p.targets, (1, 2, 3))
    trace = path(p, block)
    return trace.verified and (
        trace.steps[-1].after if trace.steps else trace.source
    ) == block.labels


def test_each_formerly_refused_state_routes():
    recorded = json.loads(FIXTURE.read_text())["states"]
    branches = Counter(
        (tuple(e["targets"]), e["expect"].split(":", 1)[0]) for e in recorded
    )
    assert branches == {
        ((6, 7, 8), "boundary-pair"): 372,
        ((6, 7, 8), "separated"): 12,
        ((6, 6, 9), "boundary-pair"): 148,
        ((6, 6, 9), "separated"): 40,
    }
    region = build_region(N)
    for e in recorded:
        p = Partition(region, tuple(e["targets"]), tuple(e["labels"]))
        assert _routes(p), e


def test_all_corner_slice_at_n7_routes():
    region = build_region(7)
    rng = random.Random(7)
    for _ in range(150):
        p = random_all_corner_state(region, rng)
        assert _routes(p), (p.targets, p.labels)


@pytest.mark.slow
def test_every_state_of_every_n6_order_routes():
    region = build_region(N)
    orders = sorted({k for w in WINDOWS for k in itertools.permutations(w)})
    assert len(orders) == 10
    for targets in orders:
        for p in enumerate_omega(region, targets, slack=1):
            assert _routes(p), (targets, p.labels)
