"""Benchmark of trirecom: routing, enumeration and the CLI.

    python3 perfbench/run.py --workload {window5,large16,diverse_cli,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its
``src/``.  Each workload is one single-threaded closed loop: the next
operation starts when the previous one returns.  A run repeats whole rounds
of operations until ``--seconds`` have passed and the workload's minimum
number of timed operations is reached; a traced run (``--trace 1``) stops at
that minimum, so its call counts repeat exactly.  Every output is checked by
``checker.py``, which shares no code with the program; a wrong output aborts
the run with exit code 1.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import click

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from checker import CheckError, Grid, check_route, districts_of, state_error  # noqa: E402
from tracer import Tracer  # noqa: E402

#: States of the n=5, k=(5,5,5) window; `trirecom enumerate --n 5 --k 5,5,5`
#: prints the same count.
WINDOW5_STATES = 3306

#: A nearly balanced n=7 state that every route refuses in Case A
#: (`boundary-pair`); it does not depend on the seed.
REFUSED_N7 = (2, 2, 2, 1, 1, 2, 1, 1, 3, 2, 1, 3, 3, 3, 2, 1,
              3, 3, 2, 2, 2, 1, 1, 1, 3, 3, 3, 2)

clock = time.perf_counter


class Refused(Exception):
    """The program refused the operation with PathError."""


def load_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import trirecom
    except ImportError as exc:
        sys.exit(f"cannot import trirecom from {src}: {exc}")
    if Path(trirecom.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"trirecom was imported from {trirecom.__file__}, not {src}")
    import trirecom.cli

    return trirecom


def flip_walk(tr, p, rng, attempts):
    """`attempts` seeded single-vertex flip attempts from p, keeping the moves
    that stay in the window."""
    verts = p.region.vertices
    for _ in range(attempts):
        v = verts[rng.randrange(len(verts))]
        to = rng.randrange(1, 4)
        if to != p.district(v) and tr.flip_valid(p, v, to):
            q = tr.apply_flip(p, v, to)
            if tr.in_omega(q):
                p = q
    return p


def walk_state(tr, region, targets, rng, attempts):
    """A flip walk from a random block state."""
    perms = list(itertools.permutations((1, 2, 3)))
    return flip_walk(tr, tr.ground_state(region, targets, perms[rng.randrange(6)]),
                     rng, attempts)


def thinned_chain(tr, region, targets, rng, burn_in, thin, count):
    """`count` states of one long flip chain from a random block state, one
    every `thin` attempts after `burn_in` attempts."""
    out = [walk_state(tr, region, targets, rng, burn_in)]
    while len(out) < count:
        out.append(flip_walk(tr, out[-1], rng, thin))
    return out


def digest_of(label_lists) -> str:
    h = hashlib.sha256()
    for labels in label_lists:
        h.update(bytes(labels))
    return h.hexdigest()


def fail(message: str):
    print(f"CHECK FAILED: {message}", file=sys.stderr)
    sys.exit(1)


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload.  `prepare` does the up-front set-up and returns its
    timings; `round(r)` returns the set-up seconds spent on round r (or None)
    and the round's operations; `op` runs one operation and `check` checks its
    output, returning the number of steps of the route."""

    name = ""
    min_ops = 40
    tail_pct = 75

    def __init__(self, tr, seed: int, tracer: Tracer | None):
        self.tr = tr
        self.seed = seed
        self.tracer = tracer
        self.inputs = hashlib.sha256()
        self.trace_bytes = 0

    def untraced(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def record_inputs(self, label_lists) -> None:
        for labels in label_lists:
            self.inputs.update(bytes(labels))

    def check_library_route(self, grid, targets, pair, trace) -> int:
        a, b = pair
        if tuple(trace.source) != a.labels:
            raise CheckError("trace source is not the first endpoint")
        check_route(grid, targets, a.labels, b.labels,
                    [(s.untouched, s.after) for s in trace.steps])
        return len(trace.steps)

    def library_path(self, pair):
        try:
            return self.tr.path(*pair)
        except self.tr.PathError as exc:
            raise Refused(exc.branch) from exc


class Window5(Workload):
    """n=5, k=(5,5,5): every state of the window, routed in random pairs."""

    name = "window5"
    min_ops = 1000
    tail_pct = 99
    targets = (5, 5, 5)
    setup_repeats = 3
    pairs_per_round = 20

    def prepare(self) -> list[float]:
        tr = self.tr
        region = tr.build_region(5)
        times, digests = [], set()
        for _ in range(self.setup_repeats):
            t0 = clock()
            states = tr.enumerate_omega(region, self.targets, 1)
            graph = tr.build_state_graph(states)
            times.append(clock() - t0)
            digests.add(digest_of(p.labels for p in states))
        if len(digests) != 1:
            fail("enumeration differs between repeats")
        self.states = states
        self.record_inputs(p.labels for p in states)
        self.grid = Grid(5)
        check_window(self.grid, self.targets, [p.labels for p in states])
        if graph.num_components != 1:
            fail(f"the state graph has {graph.num_components} components")
        return times

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        pairs = []
        for _ in range(self.pairs_per_round):
            i, j = rng.sample(range(len(self.states)), 2)
            pairs.append((self.states[i], self.states[j]))
        return None, pairs

    op = Workload.library_path

    def check(self, pair, trace) -> int:
        return self.check_library_route(self.grid, self.targets, pair, trace)


class Large16(Workload):
    """n=16, k=(45,45,46): fresh endpoints from short independent flip walks."""

    name = "large16"
    min_ops = 40
    tail_pct = 75
    targets = (45, 45, 46)
    walk_attempts = 300
    pairs_per_round = 4

    def prepare(self) -> list[float]:
        self.region = self.tr.build_region(16)
        self.grid = Grid(16)
        return []

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        t0 = clock()
        states = [
            walk_state(self.tr, self.region, self.targets, rng, self.walk_attempts)
            for _ in range(2 * self.pairs_per_round)
        ]
        elapsed = clock() - t0
        if r * self.pairs_per_round < self.min_ops:
            self.record_inputs(p.labels for p in states)
        return elapsed, list(zip(states[::2], states[1::2]))

    op = Workload.library_path

    def check(self, pair, trace) -> int:
        return self.check_library_route(self.grid, self.targets, pair, trace)


class DiverseCli(Workload):
    """n=7-9, skewed targets: states of long thinned chains, routed and
    verified through the `trirecom` command in-process."""

    name = "diverse_cli"
    min_ops = 200
    tail_pct = 95
    instances = ((7, (10, 9, 9)), (7, (7, 10, 11)), (8, (8, 12, 16)), (9, (9, 18, 18)))
    chains, burn_in, thin, per_chain = 6, 1000, 500, 6
    setup_repeats = 3
    pairs_per_instance = 3

    def prepare(self) -> list[float]:
        tr = self.tr
        times, digests = [], set()
        for _ in range(self.setup_repeats):
            t0 = clock()
            pools = []
            for idx, (n, k) in enumerate(self.instances):
                rng = random.Random(self.seed * 1_000_003 + 7919 * idx)
                pools.append([
                    p
                    for _ in range(self.chains)
                    for p in thinned_chain(tr, tr.build_region(n), k, rng, self.burn_in,
                                           self.thin, self.per_chain)
                ])
            times.append(clock() - t0)
            digests.add(digest_of(p.labels for pool in pools for p in pool))
        if len(digests) != 1:
            fail("flip chains differ between repeats")
        self.record_inputs(p.labels for pool in pools for p in pool)
        self.dir = WORK / "diverse_cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.trace_file = str(self.dir / "trace.json")
        self.grids = {n: Grid(n) for n, _ in self.instances}
        # States the program refuses depend on the seed, so they are screened
        # out of the pairs and reported; the one seed-independent refusal
        # below is timed and counted as failed in every round.
        self.pools = []
        with self.untraced():
            for (n, k), pool in zip(self.instances, pools):
                tag = f"n{n}_k{'-'.join(map(str, k))}"
                ground = tr.ground_state(pool[0].region, k, (1, 2, 3))
                kept, refused = [], []
                for i, p in enumerate(pool):
                    name = self.write_state(f"{tag}_s{i}.json", n, k, p.labels)
                    try:
                        tr.path(p, ground)
                        kept.append((name, p.labels))
                    except tr.PathError as exc:
                        refused.append(f"s{i}:{exc.branch}")
                print(f"{tag}: {len(pool)} states, {len(refused)} refused "
                      f"{' '.join(refused)}".rstrip())
                if len(kept) < 2:
                    fail(f"{tag}: fewer than two routable states")
                self.pools.append((n, k, kept))
            n, k = 7, (10, 9, 9)
            ground = tr.ground_state(tr.build_region(n), k, (1, 2, 3))
            self.refused_op = (
                n, k,
                (self.write_state("refused_n7.json", n, k, REFUSED_N7), REFUSED_N7),
                (self.write_state("ground_n7.json", n, k, ground.labels), ground.labels),
            )
        return times

    def write_state(self, name, n, k, labels) -> str:
        path = self.dir / name
        path.write_text(json.dumps({"version": 1, "n": n, "k": list(k),
                                    "labels": list(labels)}) + "\n")
        return str(path)

    def round(self, r: int):
        rng = random.Random(self.seed * 1_000_003 + r)
        ops = []
        for n, k, kept in self.pools:
            for _ in range(self.pairs_per_instance):
                a, b = rng.sample(kept, 2)
                ops.append((n, k, a, b))
        ops.append(self.refused_op)
        return None, ops

    def cli(self, *args) -> str:
        """Run one `trirecom` command through the click group in-process and
        return what it printed."""
        main = self.tr.cli.main.main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                main(list(args), standalone_mode=False)
            else:
                self.tracer.span("cli", "cli.main", main, list(args),
                                 standalone_mode=False)
        return out.getvalue()

    def op(self, item):
        n, k, (a_file, _), (b_file, _) = item
        try:
            made = self.cli("path", "--n", str(n), "--k", ",".join(map(str, k)),
                            "--from", a_file, "--to", b_file,
                            "--out", self.trace_file)
        except click.ClickException as exc:
            if isinstance(exc.__context__, self.tr.PathError):
                raise Refused(exc.__context__.branch) from exc
            raise
        try:
            verified = self.cli("verify", "--trace", self.trace_file)
        except click.ClickException as exc:
            fail(f"verify refused a returned trace: {exc.format_message()}")
        return made, verified

    def check(self, item, outputs) -> int:
        n, k, (_, a), (_, b) = item
        made, verified = outputs
        with open(self.trace_file) as fh:
            obj = json.load(fh)
        self.trace_bytes += Path(self.trace_file).stat().st_size
        if obj.get("n") != n or tuple(obj.get("k", ())) != k:
            raise CheckError("trace file names another instance")
        if tuple(obj["source"]) != a:
            raise CheckError("trace file source is not the --from state")
        steps = [(s["untouched"], s["after"]) for s in obj["steps"]]
        check_route(self.grids[n], k, a, b, steps)
        if f"steps: {len(steps)}\n" not in made:
            raise CheckError(f"path printed {made!r} for {len(steps)} steps")
        if verified != f"ok: {len(steps)} steps verified\n":
            raise CheckError(f"verify printed {verified!r}")
        return len(steps)


WORKLOADS = {w.name: w for w in (Window5, Large16, DiverseCli)}


def check_window(grid: Grid, targets, states: list[tuple[int, ...]]) -> None:
    """The enumerated window: distinct valid states, closed under every valid
    single-vertex flip that stays in the window, and one recombination
    component."""
    known = set(states)
    if len(known) != len(states):
        fail("enumerated states are not distinct")
    if len(states) != WINDOW5_STATES:
        fail(f"{len(states)} enumerated states, expected {WINDOW5_STATES}")
    for labels in states:
        reason = state_error(grid, targets, labels)
        if reason is not None:
            fail(f"enumerated state {labels}: {reason}")
    ok: dict[frozenset, bool] = {}

    def district_ok(members: frozenset) -> bool:
        if members not in ok:
            ok[members] = grid.district_ok(members)
        return ok[members]

    for labels in states:
        sets = [frozenset(s) for s in districts_of(labels)]
        for v, frm in enumerate(labels):
            for to in (1, 2, 3):
                if to == frm:
                    continue
                flipped = labels[:v] + (to,) + labels[v + 1:]
                if flipped in known:
                    continue
                shrunk, grown = sets[frm - 1] - {v}, sets[to - 1] | {v}
                if (
                    abs(len(shrunk) - targets[frm - 1]) <= 1
                    and abs(len(grown) - targets[to - 1]) <= 1
                    and district_ok(shrunk)
                    and district_ok(grown)
                ):
                    fail(f"flip of vertex {v} to {to} leaves the enumeration")
    # one component: states sharing a district's vertex set are adjacent
    parent = list(range(len(states)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for d in (1, 2, 3):
        first: dict[frozenset, int] = {}
        for i, labels in enumerate(states):
            key = frozenset(v for v, lab in enumerate(labels) if lab == d)
            j = first.setdefault(key, i)
            parent[root(i)] = root(j)
    components = len({root(i) for i in range(len(states))})
    if components != 1:
        fail(f"the window has {components} recombination components")


# -- measurement ----------------------------------------------------------------


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = math.ceil(pct / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def run(w: Workload, seconds: float, tracer: Tracer | None) -> dict:
    setup_times = w.prepare()
    setup_stats = tracer.reset() if tracer else None
    done_times, all_time, steps = [], 0.0, []
    attempted = failed = 0
    deadline = clock() + seconds
    r = 0
    while True:
        with w.untraced():
            setup_s, items = w.round(r)
        if setup_s is not None:
            setup_times.append(setup_s)
        for item in items:
            attempted += 1
            t0 = clock()
            try:
                out = w.op(item)
            except Refused:
                all_time += clock() - t0
                failed += 1
                continue
            dur = clock() - t0
            all_time += dur
            done_times.append(dur)
            try:
                steps.append(w.check(item, out))
            except CheckError as exc:
                fail(f"{w.name} round {r}: {exc}")
        r += 1
        if len(done_times) >= w.min_ops and (tracer is not None or clock() >= deadline):
            break
    print(f"{w.name} seed {w.seed}: inputs sha256 {w.inputs.hexdigest()}, "
          f"{r} rounds, {attempted} operations, {failed} refused")
    done_times.sort()
    ops_per_s = len(done_times) / all_time
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (1000 * statistics.median(done_times), "ms"),
            "op_ms_tail": (1000 * percentile(done_times, w.tail_pct), "ms"),
            "steps_per_op": (statistics.fmean(steps), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer.reset(), setup_stats, attempted, w.trace_bytes)
        metrics["traced.ops_per_s"] = (ops_per_s, "1/s")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(s, setup, ops: int, trace_bytes: int) -> dict:
    def per_op(x):
        return x / ops

    def us_per_call(name):
        return 1e6 * s.incl_s[name] / s.calls[name] if s.calls[name] else 0.0

    raw = s.raw_steps
    enumerations = setup.calls["oracle.enumerate_omega"]

    def per_enumeration(x):
        return x / enumerations if enumerations else 0.0

    enum_s = per_enumeration(setup.incl_s["oracle.enumerate_omega"])
    return {
        "partition.self_ms_per_op": (per_op(1000 * s.self_s["partition"]), "ms"),
        "partition.is_simply_connected.calls_per_op":
            (per_op(s.calls["partition.is_simply_connected"]), "count"),
        "partition.is_simply_connected.us_per_call":
            (us_per_call("partition.is_simply_connected"), "us"),
        "partition.classify.calls_per_op": (per_op(s.calls["partition.classify"]), "count"),
        "partition.classify.calls_per_step":
            (s.calls["partition.classify"] / raw if raw else 0.0, "count"),
        "moves.self_ms_per_op": (per_op(1000 * s.self_s["moves"]), "ms"),
        "moves.flip_valid.calls_per_op": (per_op(s.calls["moves.flip_valid"]), "count"),
        "moves.flip_valid.us_per_call": (us_per_call("moves.flip_valid"), "us"),
        "moves.apply_recom.calls_per_step":
            (s.calls["moves.apply_recom"] / raw if raw else 0.0, "count"),
        "toolkit.calls_per_op": (per_op(s.layer_calls["toolkit"]), "count"),
        "toolkit.errors_per_op": (per_op(s.toolkit_errors), "count"),
        "pathfinder.self_ms_per_op": (per_op(1000 * s.self_s["pathfinder"]), "ms"),
        "pathfinder.raw_steps_per_op": (per_op(raw), "count"),
        "pathfinder.compress_keep_ratio": (s.kept_steps / raw if raw else 0.0, "ratio"),
        "pathfinder.verify_trace.ms_per_op":
            (per_op(1000 * s.incl_s["pathfinder.verify_trace"]), "ms"),
        "oracle.enumerate_omega.s": (enum_s, "s"),
        "oracle.states_per_s": (WINDOW5_STATES / enum_s if enum_s else 0.0, "1/s"),
        "oracle.is_simply_connected.calls":
            (per_enumeration(setup.calls["partition.is_simply_connected"]), "count"),
        "oracle.build_state_graph.s":
            (per_enumeration(setup.incl_s["oracle.build_state_graph"]), "s"),
        "cli.self_ms_per_op": (per_op(1000 * s.self_s["cli"]), "ms"),
        "cli.write_atomic.ms_per_op": (per_op(1000 * s.incl_s["cli.write_atomic"]), "ms"),
        "cli.load_trace.ms_per_op": (per_op(1000 * s.incl_s["cli.load_trace"]), "ms"),
        "cli.trace_bytes_per_op": (per_op(trace_bytes), "B"),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        # one process per workload, so peak memory is the workload's own
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return
    tr = load_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run(WORKLOADS[args.workload](tr, args.seed, tracer), args.seconds, tracer)
    WORK.mkdir(exist_ok=True)
    line = json.dumps(result)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
