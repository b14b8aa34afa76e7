"""Command-line surface: enumeration, path construction, trace verification,
state-graph statistics, the rigid small example, and SVG rendering.

Trace files are JSON with explicit label arrays per step (no diffs) so they
round-trip losslessly and can be verified without trusting the producer.
Identical invocations produce byte-identical output files.

Exit codes: 0 success, 1 domain failure (invalid input state, construction or
verification failure), 2 usage error.
"""

from __future__ import annotations

import json
import os
import tempfile

import click

from .lattice import TriRegion, build_region
from .moves import RecomStep
from .oracle import (
    build_state_graph,
    enumerate_omega,
    rigid_states,
    unlabeled_form,
)
from .partition import (
    Partition,
    Targets,
    ground_state,
)
from .pathfinder import PathError, Trace, path as build_path, verify_trace

TRACE_FORMAT_VERSION = 1

#: District fill colors for rendering: role 1 red, role 2 blue, role 3 yellow.
DISTRICT_COLORS = {1: "#d53e2a", 2: "#2a6fd5", 3: "#e8c31e"}

EXIT_DOMAIN = 1


class DomainFailure(click.ClickException):
    """A structured domain failure: report and exit 1."""

    exit_code = EXIT_DOMAIN


# -- serialization --------------------------------------------------------------


def parse_targets(text: str) -> Targets:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.BadParameter(f"targets must be three integers, got {text!r}")
    if len(parts) != 3 or any(k <= 0 for k in parts):
        raise click.BadParameter(f"targets must be three positive sizes, got {text!r}")
    return parts


def parse_ground_perm(text: str) -> tuple[int, int, int]:
    if sorted(text) != ["1", "2", "3"]:
        raise click.BadParameter(
            f"ground state must be a permutation of '123', got {text!r}"
        )
    return tuple(int(c) for c in text)  # type: ignore[return-value]


def state_to_obj(p: Partition) -> dict:
    return {
        "version": TRACE_FORMAT_VERSION,
        "n": p.region.n,
        "k": list(p.targets),
        "labels": list(p.labels),
    }


def trace_to_obj(p: Partition, trace: Trace) -> dict:
    return {
        "version": TRACE_FORMAT_VERSION,
        "n": p.region.n,
        "k": list(p.targets),
        "source": list(trace.source),
        "steps": [
            {
                "untouched": step.untouched,
                "after": list(step.after),
                "note": step.note,
            }
            for step in trace.steps
        ],
    }


def dump_obj(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_json(filename: str) -> dict:
    try:
        with open(filename) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainFailure(f"cannot read {filename}: {exc}")
    if not isinstance(obj, dict):
        raise DomainFailure(f"{filename}: expected a JSON object")
    return obj


def _is_int(x) -> bool:
    # a JSON integer: not a float such as 1.0, and not true or false, which
    # json loads as bool, a subclass of int
    return type(x) is int


def _is_district(x) -> bool:
    return _is_int(x) and 1 <= x <= 3


def _obj_instance(obj: dict, filename: str) -> tuple[TriRegion, Targets]:
    n, k = obj.get("n"), obj.get("k")
    if not _is_int(n) or not isinstance(k, list) or not all(map(_is_int, k)):
        raise DomainFailure(f"{filename}: missing or malformed 'n' / 'k' header")
    if len(k) != 3:
        raise DomainFailure(f"{filename}: 'k' must list three targets")
    try:
        return build_region(n), tuple(k)
    except ValueError as exc:
        raise DomainFailure(f"{filename}: {exc}")


def _obj_labels(obj: dict, key: str, region: TriRegion, filename: str):
    labels = obj.get(key)
    if (
        not isinstance(labels, list)
        or len(labels) != region.num_vertices
        or not all(map(_is_district, labels))
    ):
        raise DomainFailure(
            f"{filename}: '{key}' must list one district in 1..3 per vertex"
        )
    return tuple(labels)


def load_state(filename: str) -> Partition:
    obj = _load_json(filename)
    region, targets = _obj_instance(obj, filename)
    return Partition(region, targets, _obj_labels(obj, "labels", region, filename))


def load_trace(filename: str) -> tuple[Partition, Trace]:
    obj = _load_json(filename)
    region, targets = _obj_instance(obj, filename)
    source = Partition(region, targets, _obj_labels(obj, "source", region, filename))
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise DomainFailure(f"{filename}: 'steps' must be a list")
    steps = []
    for idx, raw in enumerate(raw_steps):
        if not isinstance(raw, dict) or not _is_district(raw.get("untouched")):
            raise DomainFailure(f"{filename}: step {idx} is malformed")
        after = _obj_labels(raw, "after", region, f"{filename} step {idx}")
        steps.append(RecomStep(raw["untouched"], after, str(raw.get("note", ""))))
    return source, Trace(source.labels, steps)


# -- endpoint resolution ---------------------------------------------------------


def _resolve_endpoints(region, targets, from_file, to_file, grounds):
    grounds = list(grounds)

    def take(file_opt, flag):
        if file_opt is not None:
            p = load_state(file_opt)
            if p.region.n != region.n or p.targets != targets:
                raise DomainFailure(
                    f"{file_opt}: state instance does not match --n / --k"
                )
            return p
        if not grounds:
            raise DomainFailure(
                f"missing {flag} endpoint: give {flag} FILE or --ground PERM"
            )
        return ground_state(region, targets, parse_ground_perm(grounds.pop(0)))

    sigma = take(from_file, "--from")
    tau = take(to_file, "--to")
    if grounds:
        raise DomainFailure("too many --ground values for the given endpoints")
    return sigma, tau


# -- rendering -------------------------------------------------------------------

_SVG_SCALE = 44.0
_SVG_MARGIN = 30.0


def _frame_svg(p: Partition, offset_x: float, caption: str) -> list[str]:
    region = p.region
    pts = {v: region.position(v) for v in region.vertices}
    min_y = min(y for _, y in pts.values())

    def xy(v):
        x, y = pts[v]
        return (
            offset_x + _SVG_MARGIN + (x - pts[(1, 1)][0]) * _SVG_SCALE,
            _SVG_MARGIN + (y - min_y) * _SVG_SCALE,
        )

    out = [f'<g data-caption="{caption}">']
    for face in region.faces:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(xy, face))
        out.append(f'<polygon points="{coords}" fill="#f4f4f4" stroke="#cccccc"/>')
    for v in region.vertices:
        for u in region.neighbors(v):
            if region.index_of[u] > region.index_of[v] and p.district(u) == p.district(v):
                (x1, y1), (x2, y2) = xy(v), xy(u)
                color = DISTRICT_COLORS[p.district(v)]
                out.append(
                    f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"'
                    f' stroke="{color}" stroke-width="5" opacity="0.35"/>'
                )
    for v in region.vertices:
        x, y = xy(v)
        color = DISTRICT_COLORS[p.district(v)]
        out.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{_SVG_SCALE * 0.22:.2f}"'
            f' fill="{color}" stroke="#222222"/>'
        )
    x0, _ = xy((1, 1))
    height = _SVG_MARGIN + (region.n - 1) * _SVG_SCALE
    out.append(
        f'<text x="{x0:.2f}" y="{height + 22.0:.2f}" font-size="14"'
        f' font-family="monospace">{caption}</text>'
    )
    out.append("</g>")
    return out


def render_svg(frames: list[tuple[Partition, str]]) -> str:
    region = frames[0][0].region
    frame_w = _SVG_MARGIN * 2 + (region.n - 1) * _SVG_SCALE
    width = frame_w * len(frames)
    height = _SVG_MARGIN * 2 + (region.n - 1) * _SVG_SCALE + 30.0
    body = []
    for idx, (p, caption) in enumerate(frames):
        body.extend(_frame_svg(p, idx * frame_w, caption))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}">\n' + "\n".join(body) + "\n</svg>\n"
    )


# -- commands --------------------------------------------------------------------


@click.group()
def main():
    """Recombination walks on triangular-region tripartitions."""


@main.command(name="path")
@click.option("--n", type=int, required=True, help="Region side length.")
@click.option("--k", required=True, help="District targets k1,k2,k3.")
@click.option("--from", "from_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--to", "to_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--ground",
    "grounds",
    multiple=True,
    help="Block state by district order, e.g. 123; fills missing endpoints.",
)
@click.option("--out", type=click.Path(dir_okay=False), help="Write the trace here.")
@click.option(
    "--granularity",
    type=click.Choice(["recom", "flip"]),
    default="recom",
    show_default=True,
    help="recom merges runs sharing an untouched district; flip keeps raw steps.",
)
def path_cmd(n, k, from_file, to_file, grounds, out, granularity):
    """Construct a verified step sequence between two window states."""
    targets = parse_targets(k)
    region = build_region(n)
    sigma, tau = _resolve_endpoints(region, targets, from_file, to_file, grounds)
    try:
        trace = build_path(sigma, tau, compress=(granularity == "recom"))
    except (PathError, ValueError) as exc:
        raise DomainFailure(f"path construction failed: {exc}")
    click.echo(f"steps: {len(trace)}")
    click.echo(f"budget ratio (steps / n^3): {len(trace) / n**3:.6f}")
    if out:
        write_atomic(out, dump_obj(trace_to_obj(sigma, trace)))
        click.echo(f"trace written to {out}")


@main.command(name="enumerate")
@click.option("--n", type=int, required=True)
@click.option("--k", required=True, help="District targets k1,k2,k3.")
@click.option("--slack", type=click.IntRange(0, 1), default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
def enumerate_cmd(n, k, slack, out):
    """Exhaustively enumerate the window states of a small instance."""
    targets = parse_targets(k)
    try:
        states = enumerate_omega(build_region(n), targets, slack)
    except ValueError as exc:
        raise DomainFailure(str(exc))
    click.echo(f"states: {len(states)}")
    if out:
        obj = {
            "version": TRACE_FORMAT_VERSION,
            "n": n,
            "k": list(targets),
            "slack": slack,
            "count": len(states),
            "states": [list(p.labels) for p in states],
        }
        write_atomic(out, dump_obj(obj))
        click.echo(f"states written to {out}")


@main.command(name="verify")
@click.option("--trace", "trace_file", type=click.Path(exists=True, dir_okay=False), required=True)
def verify_cmd(trace_file):
    """Independently re-validate every step of a trace file."""
    source, trace = load_trace(trace_file)
    report = verify_trace(source, trace)
    if not report["ok"]:
        raise DomainFailure(
            f"verification failed at step {report['failed_at']}: {report['reason']}"
        )
    click.echo(f"ok: {report['steps']} steps verified")


@main.command(name="stats")
@click.option("--n", type=int, required=True)
@click.option("--k", required=True, help="District targets k1,k2,k3.")
@click.option("--slack", type=click.IntRange(0, 1), default=1, show_default=True)
def stats_cmd(n, k, slack):
    """Enumerate a small instance and report its state-graph shape."""
    targets = parse_targets(k)
    try:
        states = enumerate_omega(build_region(n), targets, slack)
    except ValueError as exc:
        raise DomainFailure(str(exc))
    graph = build_state_graph(states)
    degrees = [graph.degree(i) for i in range(len(states))] or [0]
    click.echo(f"states: {len(states)}")
    click.echo(f"components: {graph.num_components}")
    click.echo(f"rigid states: {len(rigid_states(graph))}")
    click.echo(f"degree min/max: {min(degrees)}/{max(degrees)}")


def _state_text(p: Partition) -> str:
    rows = []
    for row in range(1, p.region.n + 1):
        cells = [
            str(p.district((col, row)))
            for col in range(row, p.region.n + 1)
        ]
        rows.append(" " * (row - 1) + " ".join(cells))
    return "\n".join(rows)


@main.command(name="rigid-demo")
def rigid_demo_cmd():
    """Show the smallest instance rigid under recombination moves."""
    region = build_region(3)
    targets = (2, 2, 2)
    exact = enumerate_omega(region, targets, slack=0)
    graph = build_state_graph(exact)
    rigid = rigid_states(graph)
    if not rigid:
        raise DomainFailure("expected a rigid exact-size state at n=3")
    example = rigid[0]
    idx = graph.index_of_state(example)
    # rigid: every move reaches a relabeling, so the district map never changes
    map_changing = sum(
        1
        for j in graph.adjacency[idx]
        if unlabeled_form(graph.states[j]) != unlabeled_form(example)
    )
    assert map_changing == 0
    click.echo(f"n=3, k={targets}, slack=0: {len(exact)} states, "
               f"{len(rigid)} rigid")
    click.echo("rigid example (rows left to right, one district digit per vertex):")
    click.echo(_state_text(example))
    click.echo(f"moves that change its district map: {map_changing} (degree 0 "
               f"in the relabeling quotient)")
    relaxed = build_state_graph(enumerate_omega(region, targets, slack=1))
    click.echo(
        f"slack=1 window: {len(relaxed.states)} states, "
        f"{relaxed.num_components} component(s)"
    )


@main.command(name="render")
@click.option("--state", "state_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "trace_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def render_cmd(state_file, trace_file, out):
    """Render a state, or one frame per trace step, to SVG."""
    if (state_file is None) == (trace_file is None):
        raise click.UsageError("give exactly one of --state or --trace")
    if state_file:
        frames = [(load_state(state_file), "state")]
    else:
        source, trace = load_trace(trace_file)
        report = verify_trace(source, trace)
        if not report["ok"]:
            raise DomainFailure(
                f"refusing to render an invalid trace "
                f"(step {report['failed_at']}: {report['reason']})"
            )
        frames = [(source, "source")]
        for idx, step in enumerate(trace.steps):
            caption = f"step {idx + 1}: {step.note}" if step.note else f"step {idx + 1}"
            frames.append((source.with_labels(step.after), caption))
    write_atomic(out, render_svg(frames))
    click.echo(f"svg written to {out} ({len(frames)} frame(s))")


if __name__ == "__main__":
    main()
