"""Every refusal of the three sorted n=6 windows, pinned.

`tests/fixtures/n6_refusals.json` lists, one per line, each state of the n=6
windows with targets (7, 7, 7), (6, 7, 8) and (6, 6, 9) (slack 1) that
`path` refuses to route to the block state (1, 2, 3): its targets, its
labels and the exact `PathError` text.  The Tier-1 test routes only those
states; the opt-in slow test routes every state of the three windows, and
exactly the fixture's states must refuse, each with its text.  A change that
mends a refusal changes this fixture, and says so.

Regenerate the fixture (only when a change to the refusals is intended and
explained; about a minute):

    PYTHONPATH=src python3 tests/test_refusals.py
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from trirecom import Partition, PathError, build_region, enumerate_omega, ground_state, path

FIXTURE = Path(__file__).parent / "fixtures" / "n6_refusals.json"
N = 6
WINDOWS = ((7, 7, 7), (6, 7, 8), (6, 6, 9))


def _refusal(p: Partition) -> str | None:
    """The PathError text of routing p to its block state (1, 2, 3), or None
    when `path` returns a verified route that ends there."""
    block = ground_state(p.region, p.targets, (1, 2, 3))
    try:
        trace = path(p, block)
    except PathError as exc:
        return str(exc)
    assert trace.verified
    assert (trace.steps[-1].after if trace.steps else trace.source) == block.labels
    return None


def window_refusals() -> list[dict]:
    """Every refused state of the three windows, in enumeration order."""
    region = build_region(N)
    out = []
    for targets in WINDOWS:
        for p in enumerate_omega(region, targets, slack=1):
            text = _refusal(p)
            if text is not None:
                out.append(
                    {"targets": list(targets), "labels": list(p.labels), "expect": text}
                )
    return out


def _keyed(entries) -> dict[tuple, str]:
    """{(targets, labels): PathError text} of fixture entries."""
    return {(tuple(e["targets"]), tuple(e["labels"])): e["expect"] for e in entries}


def _load() -> dict[tuple, str]:
    return _keyed(json.loads(FIXTURE.read_text())["states"])


def test_each_recorded_refusal_keeps_its_text():
    recorded = _load()
    branches = Counter((t, text.split(":", 1)[0]) for (t, _), text in recorded.items())
    assert branches == {
        ((6, 7, 8), "boundary-pair"): 372,
        ((6, 7, 8), "separated"): 12,
        ((6, 6, 9), "boundary-pair"): 148,
        ((6, 6, 9), "separated"): 40,
    }
    region = build_region(N)
    for (targets, labels), text in recorded.items():
        assert _refusal(Partition(region, targets, labels)) == text, (targets, labels)


@pytest.mark.slow
def test_exactly_the_recorded_states_refuse_in_the_n6_windows():
    assert _keyed(window_refusals()) == _load()


if __name__ == "__main__":
    lines = ",\n".join(" " + json.dumps(e) for e in window_refusals())
    FIXTURE.write_text('{"states": [\n' + lines + "\n]}\n")
    print(f"wrote {FIXTURE}")
