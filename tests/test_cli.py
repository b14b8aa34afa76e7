"""Command-line surface: trace files, verification, enumeration, statistics,
the rigid demo, rendering, and determinism."""

import json

import pytest
from click.testing import CliRunner

from trirecom import Partition, Trace, build_region, ground_state, path, verify_trace
from trirecom.cli import dump_obj, load_trace, main, state_to_obj, trace_to_obj


@pytest.fixture()
def runner():
    return CliRunner()


def _write_state(tmp_path, name, p):
    f = tmp_path / name
    f.write_text(dump_obj(state_to_obj(p)))
    return str(f)


def test_path_between_ground_states(runner, tmp_path):
    out = tmp_path / "trace.json"
    result = runner.invoke(
        main,
        ["path", "--n", "5", "--k", "5,5,5", "--ground", "123",
         "--ground", "213", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "steps: 1" in result.output
    assert "budget ratio" in result.output
    source, trace = load_trace(str(out))
    assert verify_trace(source, trace)["ok"]


def test_path_identity_is_empty(runner, tmp_path):
    region = build_region(5)
    p = ground_state(region, (5, 5, 5), (2, 1, 3))
    f = _write_state(tmp_path, "x.json", p)
    result = runner.invoke(
        main, ["path", "--n", "5", "--k", "5,5,5", "--from", f, "--to", f]
    )
    assert result.exit_code == 0, result.output
    assert "steps: 0" in result.output


def test_path_output_is_byte_identical(runner, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["path", "--n", "5", "--k", "5,5,5", "--ground", "312",
             "--ground", "231", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_path_flip_granularity(runner, tmp_path):
    out_recom = tmp_path / "recom.json"
    out_flip = tmp_path / "flip.json"
    for out, gran in ((out_recom, "recom"), (out_flip, "flip")):
        result = runner.invoke(
            main,
            ["path", "--n", "5", "--k", "5,5,5", "--ground", "123",
             "--ground", "321", "--out", str(out), "--granularity", gran],
        )
        assert result.exit_code == 0, result.output
    n_recom = len(json.loads(out_recom.read_text())["steps"])
    n_flip = len(json.loads(out_flip.read_text())["steps"])
    assert n_recom <= n_flip
    for out in (out_recom, out_flip):
        source, trace = load_trace(str(out))
        assert verify_trace(source, trace)["ok"]


def test_path_domain_failures(runner, tmp_path):
    # endpoint instance mismatch: the file declares different targets
    p = ground_state(build_region(5), (5, 5, 5), (1, 2, 3))
    obj = state_to_obj(p)
    obj["k"] = [4, 5, 6]
    bad = tmp_path / "mismatch.json"
    bad.write_text(dump_obj(obj))
    f = str(bad)
    result = runner.invoke(
        main, ["path", "--n", "5", "--k", "5,5,5", "--from", f, "--ground", "123"]
    )
    assert result.exit_code == 1
    # missing endpoint
    result = runner.invoke(
        main, ["path", "--n", "5", "--k", "5,5,5", "--ground", "123"]
    )
    assert result.exit_code == 1
    # instance below the engine's minimum side
    result = runner.invoke(
        main, ["path", "--n", "4", "--k", "3,3,4", "--ground", "123",
               "--ground", "213"]
    )
    assert result.exit_code == 1
    # numbers that are not JSON integers: 1.0 and true for a label, 5.7 for
    # n; and a side below the region's minimum
    good = state_to_obj(p)
    for key, value, message in (
        ("labels", [1.0] + good["labels"][1:], "'labels' must list one district"),
        ("labels", [True] + good["labels"][1:], "'labels' must list one district"),
        ("n", 5.7, "malformed 'n' / 'k' header"),
        ("n", 2, "side length must be >= 3"),
    ):
        bad.write_text(json.dumps({**good, key: value}))
        result = runner.invoke(
            main, ["path", "--n", "5", "--k", "5,5,5", "--from", f, "--ground", "123"]
        )
        assert result.exit_code == 1, (key, value)
        assert message in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_usage_errors_exit_2(runner):
    result = runner.invoke(main, ["path", "--n", "5", "--k", "bogus",
                                  "--ground", "123", "--ground", "213"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["path"])
    assert result.exit_code == 2


def test_verify_rejects_corrupted_trace(runner, tmp_path):
    out = tmp_path / "trace.json"
    result = runner.invoke(
        main,
        ["path", "--n", "5", "--k", "5,5,5", "--ground", "123",
         "--ground", "231", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    obj = json.loads(out.read_text())
    assert obj["steps"]
    # verification passes on the emitted file
    ok = runner.invoke(main, ["verify", "--trace", str(out)])
    assert ok.exit_code == 0 and "ok:" in ok.output
    # flip one vertex label inside the first step
    obj["steps"][0]["after"][0] = obj["steps"][0]["after"][0] % 3 + 1
    out.write_text(json.dumps(obj))
    bad = runner.invoke(main, ["verify", "--trace", str(out)])
    assert bad.exit_code == 1
    assert "step 0" in bad.output


def test_verify_rejects_out_of_window_source(runner, tmp_path):
    # district 1 holds 13 of 15 vertices: outside the window, yet a trace
    # with no steps gives no step at which to notice it
    source = Partition(build_region(5), (5, 5, 5), (1,) * 13 + (2, 3))
    report = verify_trace(source, Trace(source.labels, []))
    assert not report["ok"]
    assert report["failed_at"] == -1
    assert report["reason"] == "source outside the window"
    f = tmp_path / "trace.json"
    f.write_text(dump_obj(trace_to_obj(source, Trace(source.labels, []))))
    result = runner.invoke(main, ["verify", "--trace", str(f)])
    assert result.exit_code == 1
    assert "source outside the window" in result.output


def test_verify_rejects_malformed_files(runner, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    assert runner.invoke(main, ["verify", "--trace", str(f)]).exit_code == 1
    f.write_text(json.dumps({"n": 5, "k": [5, 5, 5], "steps": []}))
    assert runner.invoke(main, ["verify", "--trace", str(f)]).exit_code == 1
    # numbers that are not JSON integers, in the header, the source, a
    # step's labels and a step's untouched district; and a side below the
    # region's minimum
    p = ground_state(build_region(5), (5, 5, 5), (1, 2, 3))
    q = ground_state(build_region(5), (5, 5, 5), (2, 1, 3))
    good = trace_to_obj(p, path(p, q))
    step = good["steps"][0]
    for bad, message in (
        ({**good, "n": 5.0}, "malformed 'n' / 'k' header"),
        ({**good, "n": 2}, "side length must be >= 3"),
        ({**good, "k": [5, 5.0, 5]}, "malformed 'n' / 'k' header"),
        ({**good, "k": [5, True, 5]}, "malformed 'n' / 'k' header"),
        ({**good, "source": [1.0] + good["source"][1:]}, "'source' must list"),
        (
            {**good, "steps": [{**step, "after": [2.0] + step["after"][1:]}]},
            "'after' must list",
        ),
        ({**good, "steps": [{**step, "untouched": True}]}, "step 0 is malformed"),
        ({**good, "steps": [{**step, "untouched": 3.0}]}, "step 0 is malformed"),
    ):
        f.write_text(json.dumps(bad))
        result = runner.invoke(main, ["verify", "--trace", str(f)])
        assert result.exit_code == 1, bad
        assert message in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_enumerate_counts(runner, tmp_path):
    out = tmp_path / "omega.json"
    result = runner.invoke(
        main,
        ["enumerate", "--n", "3", "--k", "2,2,2", "--slack", "0",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "states: 12" in result.output
    obj = json.loads(out.read_text())
    assert obj["count"] == 12 and len(obj["states"]) == 12
    result = runner.invoke(main, ["enumerate", "--n", "3", "--k", "2,2,2"])
    assert "states: 138" in result.output


def test_enumerate_rejects_large_sides(runner):
    result = runner.invoke(main, ["enumerate", "--n", "9", "--k", "15,15,15"])
    assert result.exit_code == 1


def test_stats(runner):
    result = runner.invoke(main, ["stats", "--n", "3", "--k", "2,2,2"])
    assert result.exit_code == 0, result.output
    assert "states: 138" in result.output
    assert "components: 1" in result.output


def test_rigid_demo(runner):
    result = runner.invoke(main, ["rigid-demo"])
    assert result.exit_code == 0, result.output
    assert "12 rigid" in result.output
    assert "degree 0" in result.output
    assert "1 component" in result.output


def test_render_state_and_trace(runner, tmp_path):
    p = ground_state(build_region(5), (5, 5, 5), (1, 2, 3))
    f = _write_state(tmp_path, "state.json", p)
    svg = tmp_path / "state.svg"
    result = runner.invoke(main, ["render", "--state", f, "--out", str(svg)])
    assert result.exit_code == 0, result.output
    text = svg.read_text()
    assert text.startswith("<svg")
    for color in ("#d53e2a", "#2a6fd5", "#e8c31e"):
        assert color in text

    trace_file = tmp_path / "trace.json"
    runner.invoke(
        main,
        ["path", "--n", "5", "--k", "5,5,5", "--ground", "123",
         "--ground", "132", "--out", str(trace_file)],
    )
    svg2 = tmp_path / "trace.svg"
    result = runner.invoke(
        main, ["render", "--trace", str(trace_file), "--out", str(svg2)]
    )
    assert result.exit_code == 0, result.output
    steps = len(json.loads(trace_file.read_text())["steps"])
    assert f"{steps + 1} frame(s)" in result.output
    assert runner.invoke(
        main, ["render", "--state", f, "--trace", str(trace_file),
               "--out", str(svg2)]
    ).exit_code == 2
