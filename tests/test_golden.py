"""Golden counts of the explorer on the shipped scenarios.

A change that does not mean to change the semantics must reproduce
these numbers exactly: states, transitions and depth of the complete
explorations of ``pair2`` and ``fig1``, and where the stale-update
mutation on a pair with a link flap first fails.
"""
import os

import pytest

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
