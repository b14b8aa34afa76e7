"""Every function of the path engine, reached from a recorded state.

`tests/fixtures/branch_states.json` holds, for the case functions of
`trirecom.pathfinder` that mild samples miss, the smallest-side state a
sampler produced that reaches each (one state may serve several), plus
recorded reproducers of known refusals and the recorded states whose route
once needed a later candidate of Case A's or Case D's pair loop (their
`reaches` names the pair function; they now route through the far-corner
and wedge-edge moves at the first pair).  Each entry records its provenance (a
sampler of `support.py`, the side, the seed, and the vertex moves an aimed
flip walk made from the sampled state; recorded states without a seed have
sampler null and say where they came from) and its expected outcome:
"route" or the exact `PathError` text.

Each state is routed to the block state (1, 2, 3) by `path` and, phase by
phase, by `balance_nearly`, `sweep`, `finish_ground` and `ground_path`; every
route is re-verified and both must end the same way.  One profile hook
records which functions of `pathfinder.py` ran, and every function and
method the module defines, read from its code objects, must be among them:
a branch added without a fixture fails here by name.
"""

from __future__ import annotations

import inspect
import json
import random
import sys
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

from trirecom import Partition, PathError, build_region, ground_state, path, verify_trace
from trirecom import pathfinder
from trirecom.pathfinder import balance_nearly, finish_ground, ground_path, sweep
from trirecom.partition import BalanceClass, classify

import support

FIXTURE = Path(__file__).parent / "fixtures" / "branch_states.json"
ENTRIES = {e["id"]: e for e in json.loads(FIXTURE.read_text())["states"]}


def pathfinder_functions() -> set[str]:
    """Qualified names of every function and method defined in
    pathfinder.py, nested ones included (lambdas and comprehensions are
    expressions, not functions, and are left out)."""
    source = Path(pathfinder.__file__)
    names = set()

    def walk(code: types.CodeType) -> None:
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            names.add(code.co_qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(compile(source.read_text(), str(source), "exec"))
    return names


@contextmanager
def pathfinder_calls():
    """Collect the qualified names of pathfinder functions called inside the
    block."""
    ran: set[str] = set()
    source = pathfinder.__file__

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == source:
            ran.add(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield ran
    finally:
        sys.setprofile(previous)


def _state(entry) -> Partition:
    region = build_region(entry["n"])
    return Partition(region, tuple(entry["targets"]), tuple(entry["labels"]))


def _outcome(route) -> str:
    """'route' when route() returns a verified trace, else the PathError
    text."""
    try:
        source, trace = route()
    except PathError as exc:
        return str(exc)
    assert trace.verified and verify_trace(source, trace)["ok"]
    assert len(trace.annotations) == len(trace)
    return "route"


def _route_by_phases(p: Partition):
    cur = p
    if classify(cur) is BalanceClass.NEARLY_BALANCED:
        cur = verify_trace(cur, balance_nearly(cur))["final"]
    cur = verify_trace(cur, sweep(cur))["final"]
    cur = verify_trace(cur, finish_ground(cur))["final"]
    reached = tuple(dict.fromkeys(cur.labels))  # its blocks' district order
    return cur, ground_path(cur.region, cur.targets, reached, (1, 2, 3))


def _drive(p: Partition) -> str:
    block = ground_state(p.region, p.targets, (1, 2, 3))
    whole = _outcome(lambda: (p, path(p, block)))
    phased = _outcome(lambda: _route_by_phases(p))
    assert phased == whole, f"path gave {whole!r}, the phases {phased!r}"
    return whole


@pytest.fixture(scope="module")
def runs():
    """{entry id: (outcome, names of the pathfinder functions it ran)}."""
    out = {}
    for key, entry in ENTRIES.items():
        with pathfinder_calls() as ran:
            try:
                outcome = _drive(_state(entry))
            except Exception as exc:  # reported by the entry's own test
                outcome = f"{type(exc).__name__}: {exc}"
        out[key] = (outcome, ran)
    return out


@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_branch_state_outcome(runs, key):
    outcome, ran = runs[key]
    entry = ENTRIES[key]
    assert outcome == entry["expect"]
    missed = sorted(set(entry["reaches"]) - ran)
    assert not missed, f"{key} no longer reaches {missed}"


def test_every_pathfinder_function_runs(runs):
    ran = set().union(*(r for _, r in runs.values()))
    missing = sorted(pathfinder_functions() - ran)
    assert not missing, "no branch state reaches: " + ", ".join(missing)


@pytest.mark.parametrize(
    "key", sorted(k for k, e in ENTRIES.items() if e["sampler"] is not None)
)
def test_branch_state_matches_its_provenance(key):
    entry = ENTRIES[key]
    region = build_region(entry["n"])
    p = getattr(support, entry["sampler"])(region, random.Random(entry["seed"]))
    p = p.with_moves(((col, row), to) for col, row, to in entry["moves"])
    assert list(p.targets) == entry["targets"]
    assert list(p.labels) == entry["labels"]
