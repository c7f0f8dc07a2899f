"""Command-line front end: reproducible output and input rejection."""
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import aodvcheck
from aodvcheck.canon import bdigest, digest, value_key
from aodvcheck.cli import (CX_FORMAT, EXIT_CAP, EXIT_USAGE, EXIT_VIOLATION,
                           main)
from aodvcheck.explore import Counterexample, EnvNet, TraceStep, replay
from aodvcheck.network import closed_net
from aodvcheck.network import tree_nodes
from aodvcheck.scenario import load_scenario, parse_scenario
from aodvcheck.trace import TRACE_FORMAT, load_trace, write_trace

SRC = os.path.dirname(os.path.dirname(aodvcheck.__file__))
SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")

PAIR = [{"ip": 1, "nbrs": [2]}, {"ip": 2, "nbrs": [1]}]


def write_scenario(tmp_path, obj, name="case"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects bad options this way
        code = e.code
    return code, capsys.readouterr()


def test_counterexample_file_ignores_hash_seed(tmp_path):
    # Two data strings for one destination: their new-packet steps are
    # siblings whose set order would follow the string hash.
    scenario = write_scenario(tmp_path, {
        "nodes": PAIR,
        "mutate": ["accept-stale-update"],
        "env": {"newpkts": [{"ip": 1, "data": "a", "dip": 2},
                            {"ip": 1, "data": "b", "dip": 2}],
                "links": [["disconnect", 1, 2], ["connect", 1, 2]]},
    })
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"cx.{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "aodvcheck.cli", "explore", scenario,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 1, done.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["suite"] == "nsqn-monotone"


@pytest.mark.parametrize("patch", [
    {"variant": []},
    {"mutate": 5},
    {"mutate": [5]},
    {"suites": [[1]]},
    {"suites": []},
    {"env": {"newpkts": [{"ip": [1], "data": "x", "dip": 2}]}},
    {"env": {"newpkts": 5}},
    {"env": {"links": [["connect", [1], 2]]}},
    {"schedule": {"events": [1]}},
    {"schedule": {"events": {"0": ["newpkt", [1], "x", 2]}}},
    {"bound": True},
    {"env": {"newpkts": [{"ip": True, "data": "x", "dip": 2}]}},
    {"schedule": {"seed": False}},
    # only a missing or null 'events' means no events
    {"schedule": {"events": []}},
    {"schedule": {"events": False}},
    {"schedule": {"events": 0}},
    {"schedule": {"events": ""}},
    # event indices are plain ASCII decimal strings, which int() is not
    {"schedule": {"events": {"1_0": ["newpkt", 1, "x", 2]}}},
    {"schedule": {"events": {" 3": ["newpkt", 1, "x", 2]}}},
    {"schedule": {"events": {"+4": ["newpkt", 1, "x", 2]}}},
    {"schedule": {"events": {"\u0663": ["newpkt", 1, "x", 2]}}},
    # the loader is the one parser of event spellings
    {"env": {"links": [["sever", 1, 2]]}},
    {"schedule": {"events": {"0": ["teleport", 1, 2]}}},
], ids=lambda patch: json.dumps(patch))
def test_malformed_scenario_is_a_usage_error(tmp_path, capsys, patch):
    scenario = write_scenario(tmp_path, {"nodes": PAIR, **patch})
    code, out = run_cli(["explore", scenario, "--bound", "1"], capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.err


def _nested(depth):
    out = []
    for _ in range(depth):
        out = [out]
    return out


@pytest.mark.parametrize("patch", [
    {"env": {"links": [_nested(600)]}},
    {"env": {"links": [["disconnect", 1, list(range(300))]]}},
], ids=["deep", "long"])
def test_scenario_error_quotes_a_value_briefly(tmp_path, capsys, patch):
    scenario = write_scenario(tmp_path, {"nodes": PAIR, **patch})
    code, out = run_cli(["explore", scenario, "--bound", "1"], capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1
    assert len(out.err) < 200


# bytes that are not UTF-8, and a document nested too deeply to parse
UNREADABLE = {"latin-1": '{"nodes": [], "name": "caf\xe9"}\n'.encode("latin-1"),
              "nested": b"[" * 200000}


def reader_argv(reader, path):
    """The argv that hands ``path`` to one of the three file readers."""
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    return {"scenario": ["explore", path],
            "counterexample": ["replay", path, pair2],
            "trace": ["graph", pair2, "--trace", path]}[reader]


@pytest.mark.parametrize("content", sorted(UNREADABLE))
@pytest.mark.parametrize("reader", ["scenario", "counterexample", "trace"])
def test_undecodable_input_file_is_a_usage_error(tmp_path, capsys, reader,
                                                 content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE[content])
    code, out = run_cli(reader_argv(reader, str(bad)), capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1
    assert out.out == ""


def test_deeply_nested_witness_is_a_usage_error(tmp_path, capsys):
    # deep enough to overflow a recursive walk, not the JSON parser
    doc = {"format": CX_FORMAT, "variant": "base", "mutations": [],
           "suite": "loop-freedom", "kind": "state", "digest": "d",
           "steps": []}
    text = json.dumps(doc)[:-1] + ', "witness": ' + "[" * 600 + "]" * 600 + "}"
    bad = tmp_path / "cx.json"
    bad.write_text(text)
    code, out = run_cli(
        ["replay", str(bad), os.path.join(SCENARIOS, "pair2.json")], capsys)
    assert code == EXIT_USAGE
    assert out.err == "error: counterexample witness is nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["explore", "pair2.json", "--bound", "-3"],
    ["explore", "pair2.json", "--state-cap", "0"],
    ["explore", "pair2.json", "--state-cap", "-1"],
    ["simulate", "pair2.json", "--steps", "-5"],
    ["simulate", "pair2.json", "--steps", "0"],
    ["graph", "pair2.json", "--steps", "0"],
])
def test_out_of_range_numeric_option_is_a_usage_error(capsys, argv):
    argv = [argv[0], os.path.join(SCENARIOS, argv[1]), *argv[2:]]
    code, out = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert "error: argument" in out.err
    assert out.out == ""


def test_empty_suite_option_is_a_usage_error(capsys):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    code, out = run_cli(["explore", pair2, "--suite", ","], capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith("error: no suite selected")
    assert "result:" not in out.out


@pytest.mark.parametrize("command", ["explore", "simulate", "graph"])
def test_repeated_suite_option_is_a_usage_error(capsys, command):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    code, out = run_cli([command, pair2, "--suite",
                         "loop-freedom,loop-freedom"], capsys)
    assert code == EXIT_USAGE
    assert out.err == ("error: suite 'loop-freedom' is selected twice\n")
    assert out.out == ""


def test_scenario_naming_a_suite_twice_is_a_usage_error(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {
        "nodes": PAIR, "suites": ["quality", "quality"],
        "schedule": {"events": {"0": ["newpkt", 1, "x", 2]}}})
    code, out = run_cli(["simulate", scenario], capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith("error: ")
    assert "'quality' is selected twice" in out.err
    assert "Traceback" not in out.err


def test_smallest_numeric_options_are_accepted(tmp_path, capsys):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    code, out = run_cli(["explore", pair2, "--bound", "0",
                         "--state-cap", "1"], capsys)
    assert code == 0 and "states: 1 " in out.out
    code, out = run_cli(["simulate", pair2, "--steps", "1"], capsys)
    assert code == 0 and "steps: 1 " in out.out


STALE_LINKS = os.path.join(os.path.dirname(SCENARIOS), "bench", "scenarios",
                           "pair2_links_stale.json")


def test_violation_found_before_the_state_cap_is_reported(tmp_path, capsys):
    # The uncapped run stores 10829 states and finds four violations
    # while expanding its last layer; a cap one state lower stops the
    # same layer after all four are found.
    full, capped = tmp_path / "full.json", tmp_path / "capped.json"
    code, _ = run_cli(["explore", STALE_LINKS, "--out", str(full)], capsys)
    assert code == EXIT_VIOLATION
    code, out = run_cli(["explore", STALE_LINKS, "--state-cap", "10828",
                         "--out", str(capped)], capsys)
    assert code == EXIT_VIOLATION
    assert out.err.startswith("state cap hit")
    assert "exploration stopped at the state cap" in out.out
    assert "violated: nsqn-monotone (step) at depth 58" in out.out
    assert capped.read_bytes() == full.read_bytes()


def test_state_cap_without_a_violation_writes_nothing(tmp_path, capsys):
    out_file = tmp_path / "cx.json"
    code, out = run_cli(["explore", STALE_LINKS, "--state-cap", "100",
                         "--out", str(out_file)], capsys)
    assert code == EXIT_CAP
    assert out.err.startswith("state cap hit")
    assert "result:" not in out.out
    assert not out_file.exists()


def test_progress_lines_go_to_stderr_only(tmp_path, capsys, monkeypatch):
    # Each clock reading is 3 s after the last, and the printer reads it
    # once when the run starts and once per finished layer, so a line
    # is due at every second layer.  A clock that never moves prints
    # none, and the report and counterexample bytes are the same.
    import aodvcheck.cli as cli
    runs = []
    for step in (0, 3):
        monkeypatch.setattr(cli, "_clock", itertools.count(0, step).__next__)
        out_file = tmp_path / f"cx.{step}.json"
        code, out = run_cli(["explore", STALE_LINKS, "--out", str(out_file)],
                            capsys)
        assert code == EXIT_VIOLATION
        runs.append((out.out.replace(str(out_file), "CX"), out.err,
                     out_file.read_bytes()))
    (quiet_out, quiet_err, quiet_cx), (out, err, cx) = runs
    assert (out, cx) == (quiet_out, quiet_cx)
    assert quiet_err == ""
    pattern = re.compile(r"progress: depth (\d+)  states (\d+)  "
                         r"transitions (\d+)  peak RSS \d+\.\d MB")
    rows = [tuple(map(int, pattern.fullmatch(line).groups()))
            for line in err.splitlines()]
    assert [d for d, _, _ in rows] == list(range(2, 59, 2))
    for count in (1, 2):
        values = [row[count] for row in rows]
        assert values == sorted(values)
    assert "states: 10829  transitions: 27993  depth: 58" in out


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    runs = [subprocess.run([sys.executable, "-m", module, "explore", pair2],
                           env=env, capture_output=True, text=True,
                           timeout=300)
            for module in ("aodvcheck", "aodvcheck.cli")]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert "states: 4339  transitions: 10086" in runs[0].stdout


STALE_PAIR = {
    "nodes": PAIR,
    "mutate": ["accept-stale-update"],
    "env": {"newpkts": [{"ip": 1, "data": "a", "dip": 2}],
            "links": [["disconnect", 1, 2], ["connect", 1, 2]]},
}


def test_counterexample_file_replays_by_rank(tmp_path, capsys):
    scenario = write_scenario(tmp_path, STALE_PAIR)
    out = tmp_path / "cx.json"
    code, _ = run_cli(["explore", scenario, "--out", str(out)], capsys)
    assert code == EXIT_VIOLATION
    doc = json.loads(out.read_text())
    assert doc["format"] == CX_FORMAT
    assert all(isinstance(st["key"], int) for st in doc["steps"])
    sc = load_scenario(scenario)
    auto = EnvNet(closed_net(sc.tree, sc.cfg), sc.env)
    (init,) = auto.init
    steps = tuple(TraceStep(st["origin"], st["action"], st["key"],
                            st["digest"]) for st in doc["steps"])
    cx = Counterexample(doc["suite"], doc["kind"], tuple(doc["witness"]),
                        bdigest(init), steps, doc["digest"])
    assert digest(value_key(replay(auto, cx))) == doc["digest"]


# node 2 does not list node 1; the loader adds the link both ways
ONE_SIDED = [{"ip": 1, "nbrs": [2]}, {"ip": 2, "nbrs": []}]
SYMMETRIZED = "symmetrizing link 1-2: 2 did not list 1"


def test_one_sided_link_is_symmetrized_with_a_warning():
    with pytest.warns(UserWarning, match=SYMMETRIZED):
        sc = parse_scenario({"nodes": ONE_SIDED})
    assert dict(tree_nodes(sc.tree)) == {1: frozenset([2]),
                                         2: frozenset([1])}


def test_symmetrizing_warning_is_one_stderr_line(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {
        **STALE_PAIR, "nodes": ONE_SIDED,
        "schedule": {"seed": 0, "steps": 20,
                     "events": {"0": ["newpkt", 1, "a", 2]}}})
    out = str(tmp_path / "cx.json")
    for argv, want in [(["explore", scenario, "--out", out], EXIT_VIOLATION),
                       (["replay", out, scenario], 0),
                       (["simulate", scenario], 0),
                       (["graph", scenario], 0)]:
        code, got = run_cli(argv, capsys)
        assert code == want, got.err
        assert got.err == f"warning: {SYMMETRIZED}\n"


def test_graph_validates_a_current_trace(tmp_path, capsys):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    trace = str(tmp_path / "t.ndjson")
    code, _ = run_cli(["simulate", pair2, "--out", trace], capsys)
    assert code == 0
    assert load_trace(trace)[0]["format"] == TRACE_FORMAT
    code, out = run_cli(["graph", pair2, "--trace", trace], capsys)
    assert code == 0
    assert json.loads(out.out)["validated"] is True


def test_graph_reports_a_trace_of_another_run(tmp_path, capsys):
    # a trace of 20 steps checked against a re-run of 21
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    trace = str(tmp_path / "t.ndjson")
    code, _ = run_cli(["simulate", pair2, "--steps", "20", "--out", trace],
                      capsys)
    assert code == 0
    code, out = run_cli(["graph", pair2, "--steps", "21", "--trace", trace],
                        capsys)
    assert code == EXIT_VIOLATION
    assert out.err.startswith("error: trace does not match the re-run (")
    doc = json.loads(out.out)
    assert doc["trace_final"] != doc["final"]
    assert "validated" not in doc


def test_graph_writes_its_document_for_a_trace_of_another_run(tmp_path,
                                                             capsys):
    # the mismatch document goes to --out, as a match's does, indented
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    trace = str(tmp_path / "t.ndjson")
    run_cli(["simulate", pair2, "--steps", "20", "--out", trace], capsys)
    argv = ["graph", pair2, "--steps", "21", "--trace", trace]
    code, shown = run_cli(argv, capsys)
    assert code == EXIT_VIOLATION
    graphs = tmp_path / "g.json"
    code, out = run_cli(argv + ["--out", str(graphs)], capsys)
    assert code == EXIT_VIOLATION
    assert out.out == f"graphs: {graphs}\n"
    assert out.err == shown.err
    assert out.err.startswith("error: trace does not match the re-run (")
    assert graphs.read_text() == shown.out
    doc = json.loads(shown.out)
    assert shown.out == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert doc["trace_final"] != doc["final"]


@pytest.mark.parametrize("header", [
    {"format": "aodvcheck-trace-1", "kind": "simulate"},
    {"format": "aodvcheck-trace-2"},
    {"kind": "simulate"},
    [],
], ids=json.dumps)
def test_graph_rejects_a_trace_in_another_format(tmp_path, capsys, header):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    trace = str(tmp_path / "t.ndjson")
    run_cli(["simulate", pair2, "--out", trace], capsys)
    records = load_trace(trace)
    write_trace(trace, [header] + records[1:])
    code, out = run_cli(["graph", pair2, "--trace", trace], capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith("error: trace format")
    assert out.out == ""


def test_graph_rejects_a_trace_of_other_mutations(tmp_path, capsys):
    # a trace of the mutated scenario checked against the unmutated one
    stale = {"nodes": PAIR, "mutate": ["accept-stale-update"],
             "schedule": {"seed": 0, "steps": 30,
                          "events": {"0": ["newpkt", 1, "x", 2]}}}
    mutated = write_scenario(tmp_path, stale, "stale")
    del stale["mutate"]
    plain = write_scenario(tmp_path, stale, "plain")
    trace = str(tmp_path / "t.ndjson")
    code, _ = run_cli(["simulate", mutated, "--out", trace], capsys)
    assert code == 0
    assert load_trace(trace)[0]["mutations"] == ["accept-stale-update"]
    code, out = run_cli(["graph", plain, "--trace", trace], capsys)
    assert code == EXIT_USAGE
    assert out.err == ("error: trace was written with mutations "
                       "['accept-stale-update'], the scenario has []\n")
    assert out.out == ""
    code, out = run_cli(["graph", mutated, "--trace", trace], capsys)
    assert code == 0
    assert json.loads(out.out)["validated"] is True


def test_graph_rejects_an_unreadable_trace(tmp_path, capsys):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    bad = tmp_path / "t.ndjson"
    bad.write_text("{not json\n")
    for path in (str(bad), str(tmp_path / "missing.ndjson")):
        code, out = run_cli(["graph", pair2, "--trace", path], capsys)
        assert code == EXIT_USAGE
        assert out.err.startswith("error: ")
        assert "Traceback" not in out.err


@pytest.mark.parametrize("record,message", [
    (5, "trace record 1 is not an object"),
    ({"final": 5}, "trace record 1 has no valid 'final'"),
], ids=["not-an-object", "final-not-a-string"])
def test_graph_rejects_a_malformed_trace_record(tmp_path, capsys, record,
                                                message):
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    trace = str(tmp_path / "t.ndjson")
    run_cli(["simulate", pair2, "--out", trace], capsys)
    records = load_trace(trace)
    write_trace(trace, records[:1] + [record] + records[1:])
    code, out = run_cli(["graph", pair2, "--trace", trace], capsys)
    assert code == EXIT_USAGE
    assert out.err == f"error: {message}\n"
    assert out.out == ""


@pytest.mark.parametrize("command", ["explore", "simulate", "graph"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command):
    # explore writes only a counterexample, so it gets a failing scenario
    scenario = (write_scenario(tmp_path, STALE_PAIR) if command == "explore"
                else os.path.join(SCENARIOS, "pair2.json"))
    out_path = str(tmp_path / "missing" / "out.json")
    code, out = run_cli([command, scenario, "--out", out_path], capsys)
    assert code == EXIT_USAGE
    assert out.err.startswith(f"error: cannot write {out_path}")
    assert "Traceback" not in out.err


def test_variant_option_keeps_the_scenario_mutations(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {**STALE_PAIR, "variant": "fwd-rreq"})
    cx = tmp_path / "cx.json"
    code, out = run_cli(["explore", scenario, "--variant", "base",
                         "--out", str(cx)], capsys)
    assert code == EXIT_VIOLATION
    assert "(variant base)" in out.out
    assert "violated: nsqn-monotone" in out.out
    code, out = run_cli(["explore", scenario, "--variant", "fwd-rrep",
                         "--out", str(cx)], capsys)
    assert code == EXIT_VIOLATION
    assert "(variant fwd-rrep)" in out.out
    assert json.loads(cx.read_text())["variant"] == "fwd-rrep"


def test_mutations_are_named_after_the_scenario_line(tmp_path, capsys):
    stale = write_scenario(tmp_path, {**STALE_PAIR, "schedule": {
        "steps": 20, "events": {"0": ["newpkt", 1, "a", 2]}}})
    cx = str(tmp_path / "cx.json")
    for argv in (["explore", stale, "--out", cx], ["replay", cx, stale],
                 ["simulate", stale, "--out", str(tmp_path / "t.ndjson")]):
        _, out = run_cli(argv, capsys)
        assert out.out.splitlines()[1] == "mutations: accept-stale-update"
    pair2 = os.path.join(SCENARIOS, "pair2.json")
    for argv in (["explore", pair2], ["simulate", pair2]):
        _, out = run_cli(argv, capsys)
        assert "mutations:" not in out.out


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["explore", "simulate", "graph"])
def test_closed_stdout_ends_quietly(command, unbuffered):
    # The read end is closed before the run writes anything, so every
    # write to stdout, or the flush at exit, meets a broken pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "aodvcheck.cli", command,
             os.path.join(SCENARIOS, "pair2.json")],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True,
            timeout=300)
    finally:
        os.close(w)
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
    assert done.returncode == 1


class TestReplayCommand:
    """``aodvcheck replay`` re-derives a counterexample file."""

    def write_cx(self, tmp_path, capsys, variant="base"):
        out = tmp_path / f"cx.{variant}.json"
        code, _ = run_cli(["explore", STALE_LINKS, "--variant", variant,
                           "--out", str(out)], capsys)
        assert code == EXIT_VIOLATION
        return out

    def assert_usage_error(self, argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out.err.startswith("error: ")
        assert out.err.count("\n") == 1
        assert "Traceback" not in out.err
        assert "final:" not in out.out

    @pytest.mark.parametrize("variant", ["base", "fwd-rrep", "fwd-rreq"])
    def test_written_file_replays(self, tmp_path, capsys, variant):
        out = self.write_cx(tmp_path, capsys, variant)
        doc = json.loads(out.read_text())
        assert doc["variant"] == variant
        code, got = run_cli(["replay", str(out), STALE_LINKS], capsys)
        assert code == 0, got.err
        assert f"(variant {variant})" in got.out
        assert got.out.splitlines()[-1] == f"final: {doc['digest']}"

    def test_tampered_digest_is_rejected(self, tmp_path, capsys):
        out = self.write_cx(tmp_path, capsys)
        doc = json.loads(out.read_text())
        doc["steps"][5]["digest"] = "0" * 32
        out.write_text(json.dumps(doc))
        self.assert_usage_error(["replay", str(out), STALE_LINKS], capsys)

    def test_tampered_final_digest_is_rejected(self, tmp_path, capsys):
        out = self.write_cx(tmp_path, capsys)
        doc = json.loads(out.read_text())
        doc["digest"] = "0" * 32
        out.write_text(json.dumps(doc))
        self.assert_usage_error(["replay", str(out), STALE_LINKS], capsys)

    @pytest.mark.parametrize("field,value", [
        ("origin", 99), ("origin", None), ("action", "teleport(1, 2)")])
    def test_tampered_step_story_is_rejected(self, tmp_path, capsys, field,
                                             value):
        # the digests all hold: only the step's told story changes
        out = self.write_cx(tmp_path, capsys)
        doc = json.loads(out.read_text())
        doc["steps"][3][field] = value
        out.write_text(json.dumps(doc))
        code, got = run_cli(["replay", str(out), STALE_LINKS], capsys)
        assert code == EXIT_USAGE
        assert got.err.startswith("error: counterexample step 3 is ")

    @pytest.mark.parametrize("patch", [
        {"suite": "sn-monotone"},
        {"suite": "rerr-grounded"},
        {"suite": "quality"},
        {"suite": "no-such-suite"},
        {"kind": "state"},
        {"kind": "both"},
        {"witness": [2, 1, 2, 1]},
        {"witness": []},
    ], ids=json.dumps)
    def test_tampered_verdict_is_rejected(self, tmp_path, capsys, patch):
        out = self.write_cx(tmp_path, capsys)
        doc = json.loads(out.read_text())
        assert (doc["suite"], doc["kind"]) == ("nsqn-monotone", "step")
        out.write_text(json.dumps({**doc, **patch}))
        self.assert_usage_error(["replay", str(out), STALE_LINKS], capsys)

    def test_state_suite_is_checked_on_the_final_state(self, tmp_path,
                                                       capsys, monkeypatch):
        # a stand-in state suite that fails once node 1 knows a route
        import aodvcheck.monitor as monitor
        from aodvcheck.network import net_data

        def routed(net):
            rt = net_data(net)[1].rt
            return (1, len(rt)) if len(rt) else None

        monkeypatch.setitem(monitor.STATE_SUITES, "hop-positivity", routed)
        scenario = os.path.join(SCENARIOS, "pair2.json")
        out = tmp_path / "cx.json"
        code, _ = run_cli(["explore", scenario, "--suite", "hop-positivity",
                           "--out", str(out)], capsys)
        assert code == EXIT_VIOLATION
        doc = json.loads(out.read_text())
        assert (doc["kind"], doc["witness"]) == ("state", [1, 1])
        code, got = run_cli(["replay", str(out), scenario], capsys)
        assert code == 0, got.err
        out.write_text(json.dumps({**doc, "witness": [1, 2]}))
        self.assert_usage_error(["replay", str(out), scenario], capsys)

    def test_foreign_scenario_is_rejected(self, tmp_path, capsys):
        out = self.write_cx(tmp_path, capsys)
        for other in ("pair2.json", "chain3.json"):
            self.assert_usage_error(
                ["replay", str(out), os.path.join(SCENARIOS, other)], capsys)

    @pytest.mark.parametrize("text", [
        "not json",
        "[]",
        json.dumps({"format": "aodvcheck-cx-1"}),
        json.dumps({"format": "aodvcheck-cx-2"}),
        json.dumps({"format": CX_FORMAT}),
        json.dumps({"format": CX_FORMAT, "variant": "base",
                    "mutations": ["accept-stale-update"], "suite": "s",
                    "kind": "step", "witness": [], "digest": "d",
                    "steps": [{"origin": 1, "action": "tau", "key": True,
                               "digest": "d"}]}),
        json.dumps({"format": CX_FORMAT, "variant": "nope",
                    "mutations": ["accept-stale-update"], "suite": "s",
                    "kind": "step", "witness": [], "digest": "d",
                    "steps": []}),
        json.dumps({"format": "aodvcheck-cx-2", "variant": "base",
                    "suite": "s", "kind": "step", "witness": [],
                    "digest": "d", "steps": []}),
    ])
    def test_malformed_file_is_rejected(self, tmp_path, capsys, text):
        out = tmp_path / "cx.json"
        out.write_text(text)
        self.assert_usage_error(["replay", str(out), STALE_LINKS], capsys)

    def test_file_of_other_mutations_is_rejected(self, tmp_path, capsys):
        # the stale-update counterexample replayed on the plain protocol
        out = self.write_cx(tmp_path, capsys)
        assert json.loads(out.read_text())["mutations"] == [
            "accept-stale-update"]
        with open(STALE_LINKS) as fh:
            plain = json.load(fh)
        del plain["mutate"]
        scenario = tmp_path / "plain.json"
        scenario.write_text(json.dumps(plain))
        code, got = run_cli(["replay", str(out), str(scenario)], capsys)
        assert code == EXIT_USAGE
        assert got.err == ("error: counterexample was written with mutations "
                           "['accept-stale-update'], the scenario has []\n")
        assert got.out == ""

    def test_unreadable_file_is_rejected(self, tmp_path, capsys):
        self.assert_usage_error(
            ["replay", str(tmp_path / "missing.json"), STALE_LINKS], capsys)

    def test_scenario_with_several_initial_states_is_rejected(
            self, tmp_path, capsys, monkeypatch):
        import aodvcheck.cli as cli
        out = self.write_cx(tmp_path, capsys)

        class TwoInits(EnvNet):
            def __init__(self, net, env):
                super().__init__(net, env)
                (s,) = self.init
                self.init = (s, (s[0], None))

        monkeypatch.setattr(cli, "EnvNet", TwoInits)
        self.assert_usage_error(["replay", str(out), STALE_LINKS], capsys)
