"""Frozen flip-walk digests: the seeded samplers accept exactly the same flips.

Each walk starts at a block state drawn from `random.Random(seed)` and runs
`support.flip_walk` for `rounds` rounds of `attempts` proposals, each round
starting where the last one stopped; the digest is sha256 over the label
arrays of the round outputs, one byte per vertex.  Every test, fuzz and
benchmark state comes from such walks, so a change to flip validity or to
the window check that accepts or refuses one more flip moves a digest here
before it moves a golden trace.

Regenerate (only when a sampler change is intended and explained):

    PYTHONPATH=src:tests python3 tests/test_walks.py
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from trirecom import build_region, ground_state

from support import flip_walk

#: (n, targets, attempts per round, rounds, seed)
WALKS = (
    (5, (5, 5, 5), 300, 8, 501),
    (5, (5, 5, 5), 2000, 4, 502),
    (8, (12, 12, 12), 300, 8, 801),
    (8, (8, 12, 16), 2000, 4, 802),
    (16, (45, 45, 46), 300, 8, 1601),
    (16, (45, 45, 46), 2000, 4, 1602),
)


def walk_digest(n, targets, attempts, rounds, seed) -> str:
    region = build_region(n)
    rng = random.Random(seed)
    perms = list(itertools.permutations((1, 2, 3)))
    p = ground_state(region, targets, perms[rng.randrange(6)])
    blob = bytearray()
    for _ in range(rounds):
        p = flip_walk(p, rng, attempts)
        blob += bytes(p.labels)
    return hashlib.sha256(bytes(blob)).hexdigest()


#: walk -> digest, generated before flip walks carried district validity
FROZEN_WALKS = {
    (5, (5, 5, 5), 300, 8, 501): "4f03e87a960754dc65e792d3f22c21caf84329b9d1d8c550292e7b23c9b55a4c",
    (5, (5, 5, 5), 2000, 4, 502): "ecad3f2e12d2f929915a50b8468facd188f60c18689c950c8bcbf70c6b6fb44c",
    (8, (12, 12, 12), 300, 8, 801): "27d6d1b9fc118c43575a6b6e3063eeadaf66b7921f26ed2766689835bb247cda",
    (8, (8, 12, 16), 2000, 4, 802): "58e1b85026432dbe8c8b089665ba20d23d8f902f27677a2f3ae4c76f502961ab",
    (16, (45, 45, 46), 300, 8, 1601): "ba6d660bc4c402b50a549a11e797e156b6f30471f429c027989203572f205e93",
    (16, (45, 45, 46), 2000, 4, 1602): "6f2a2a717173a8570291053fb1b7d57decb3070b629ca4f1fa61f984af07233a",
}


@pytest.mark.parametrize("walk", WALKS, ids=lambda w: f"n{w[0]}_a{w[2]}_s{w[4]}")
def test_flip_walk_matches_frozen_digest(walk):
    assert walk_digest(*walk) == FROZEN_WALKS[walk]


if __name__ == "__main__":
    for walk in WALKS:
        print(f"    {walk}: \"{walk_digest(*walk)}\",")
