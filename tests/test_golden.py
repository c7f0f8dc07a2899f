"""Golden counts of the explorer on the shipped scenarios.

A change that does not mean to change the semantics must reproduce
these numbers exactly: states, transitions and depth of the complete
explorations of ``pair2``, ``fig1`` and ``line3_cross``, where the stale-update
mutation on a pair with a link flap first fails, the bytes of the
counterexample file the command line writes for it, and the bytes of
the trace it writes for a seeded simulation of the mutated chain.
"""
import hashlib
import os

import pytest

from aodvcheck.cli import EXIT_VIOLATION, main
from aodvcheck.explore import check_theorem1
from aodvcheck.scenario import load_scenario
from aodvcheck.variants import with_variant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check(path, variant=None):
    sc = load_scenario(os.path.join(ROOT, path))
    cfg = sc.cfg if variant is None else with_variant(sc.cfg, variant)
    return check_theorem1(sc.tree, sc.env, cfg, suites=sc.suites,
                          bound=sc.bound)


def _golden(path, variant, states, transitions, depth):
    # the scenario's own variant keeps the id it had before the column
    tag = "" if variant is None else f"{variant}-"
    return pytest.param(path, variant, states, transitions, depth,
                        id=f"{path}-{tag}{states}-{transitions}-{depth}")


# fig1 under every named variant: with the counterexample pins below,
# which tell fwd-rreq from base, a table handed to another
# configuration changes some figure.
@pytest.mark.parametrize("path,variant,states,transitions,depth", [
    _golden("scenarios/pair2.json", None, 4339, 10086, 92),
    _golden("scenarios/fig1.json", None, 12938, 42770, 102),
    _golden("scenarios/fig1.json", "no-rreqid", 12937, 42769, 101),
    _golden("scenarios/fig1.json", "fwd-rrep", 12502, 41322, 100),
    _golden("scenarios/fig1.json", "bcast-rerr", 12566, 41510, 101),
    _golden("scenarios/fig1.json", "fwd-rreq", 12938, 42770, 102),
    # the line 1-2-3 with packets 1->3 and 3->1; fwd-rreq's complete run
    # (194293 / 683032 / 152) takes about 6 s and is checked in CI
    _golden("scenarios/line3_cross.json", None, 33792, 104856, 111),
    _golden("scenarios/line3_cross.json", "no-rreqid", 33645, 104462, 110),
    _golden("scenarios/line3_cross.json", "bcast-rerr", 32292, 100056, 110),
    _golden("scenarios/line3_cross.json", "fwd-rrep", 53344, 168626, 137),
])
def test_complete_exploration(path, variant, states, transitions, depth):
    rep = _check(path, variant)
    assert rep.complete and rep.holds
    assert (rep.states, rep.transitions, rep.depth) == (
        states, transitions, depth)


def test_first_stale_update_violation():
    rep = _check("bench/scenarios/pair2_links_stale.json")
    assert not rep.holds
    assert rep.states == 10829
    cx = min(rep.counterexamples, key=lambda c: (c.depth, c.suite))
    assert (cx.suite, cx.depth) == ("nsqn-monotone", 58)


# sha256 of the ``aodvcheck explore --out`` file.  The pins were first
# recorded before the visited set was keyed by subtree numbers, and
# re-recorded when format ``aodvcheck-cx-3`` added the mutation list,
# the only change to the files; a store rewrite must not change which
# counterexample is found or how it is written.
@pytest.mark.parametrize("variant,sha256", [
    ("base",
     "a1035d30cf6f56f05e8d5c49f30bebce4667ffc19850ec0694a859320d2f57b6"),
    ("fwd-rrep",
     "957dd4f4ea5c774fbc05654681eb8c6f901d8aa76d862fa9ab0b0eb0aa51844d"),
    ("fwd-rreq",
     "b82171d16faf2ca802c45685050ea6e6cabab4b7e43e477f55797100becc361b"),
])
def test_counterexample_file_bytes(tmp_path, capsys, variant, sha256):
    out = tmp_path / "cx.json"
    code = main(["explore",
                 os.path.join(ROOT, "bench/scenarios/pair2_links_stale.json"),
                 "--variant", variant, "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_VIOLATION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# sha256 of the ``aodvcheck simulate --out`` trace of the stale-update
# chain, with and without ``--dump-sigma``.  The pins were recorded
# before the trace records were built lazily from the walked path; a
# change to how the simulator keeps its trace must not change its bytes.
@pytest.mark.parametrize("flags,sha256", [
    ((), "57426299bce15eba75e76eea959ad4c81ee84e9784d142b4e3dd7ae446a410c1"),
    (("--dump-sigma",),
     "ed79ac746912a80962b98017c332989b98e035a8d8b0146a3c4ae3b9ec604e6d"),
])
def test_simulate_trace_bytes(tmp_path, capsys, flags, sha256):
    out = tmp_path / "trace.jsonl"
    code = main(["simulate",
                 os.path.join(ROOT, "bench/scenarios/chain3_stale.json"),
                 *flags, "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_VIOLATION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
