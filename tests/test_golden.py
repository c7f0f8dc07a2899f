"""Golden counts of the explorer on the shipped scenarios.

A change that does not mean to change the semantics must reproduce
these numbers exactly: states, transitions and depth of the complete
explorations of ``pair2`` and ``fig1``, where the stale-update
mutation on a pair with a link flap first fails, and the bytes of the
counterexample file the command line writes for it.
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


# sha256 of the ``aodvcheck explore --out`` file, recorded before the
# visited set was keyed by subtree numbers; a store rewrite must not
# change which counterexample is found or how it is written.
@pytest.mark.parametrize("variant,sha256", [
    ("base",
     "eba83a6f4c92606a9215198993f96eb06c309de4cab06fb8a7f6300f903aa7b8"),
    ("fwd-rrep",
     "1f527f613ad552637bae8b158ea538f1c2d1302881810fa2c54b195de271f491"),
    ("fwd-rreq",
     "b11b70dc19eeb04ea793678a28c88d68372ff683733d79530ee909f1aa5a762a"),
])
def test_counterexample_file_bytes(tmp_path, capsys, variant, sha256):
    out = tmp_path / "cx.json"
    code = main(["explore",
                 os.path.join(ROOT, "bench/scenarios/pair2_links_stale.json"),
                 "--variant", variant, "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_VIOLATION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
