"""Golden counts of the explorer on the shipped scenarios.

A change that does not mean to change the semantics must reproduce
these numbers exactly: states, transitions and depth of the complete
explorations of ``pair2`` and ``fig1``, where the stale-update
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check(path):
    sc = load_scenario(os.path.join(ROOT, path))
    return check_theorem1(sc.tree, sc.env, sc.cfg, suites=sc.suites,
                          bound=sc.bound)


@pytest.mark.parametrize("path,states,transitions,depth", [
    ("scenarios/pair2.json", 4339, 10086, 92),
    ("scenarios/fig1.json", 12938, 42770, 102),
])
def test_complete_exploration(path, states, transitions, depth):
    rep = _check(path)
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
