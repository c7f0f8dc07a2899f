"""Interned node and subnet states: one object per distinct subtree value.

Each node and subnet automaton below the root keeps a table of the
states it has built, and hands out the one built first whenever a new
state equals it, and numbers each state it interns.  These tests check
that reached subtrees are shared that way, that the interned object
digests like the state it replaces, that the numbers stand for digests,
that root states enter no table, and that tables belong to one network.
"""
import gc
import os
import weakref

import pytest

from aodvcheck.awn import NodeAutomaton, NodeS, SubnetAutomaton, SubnetS
from aodvcheck.canon import bdigest
from aodvcheck.explore import EnvNet, explore
from aodvcheck.network import closed_net
from aodvcheck.protocol import build_table
from aodvcheck.scenario import load_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHAIN3 = "scenarios/chain3.json"
FIG1 = "scenarios/fig1.json"
STALE_LINKS = "bench/scenarios/pair2_links_stale.json"


def env_net(path, table=None) -> EnvNet:
    sc = load_scenario(os.path.join(ROOT, path))
    return EnvNet(closed_net(sc.tree, sc.cfg, table), sc.env)


def automata(auto):
    """The node and subnet automata of an ``EnvNet``, root first."""
    todo = [auto.net.net]
    while todo:
        a = todo.pop()
        yield a
        if isinstance(a, SubnetAutomaton):
            todo += [a.right, a.left]


def subtrees(net_state):
    """The node and inner subnet states below a root network state."""
    todo = ([net_state.left, net_state.right]
            if isinstance(net_state, SubnetS) else [])
    while todo:
        x = todo.pop()
        yield x
        if isinstance(x, SubnetS):
            todo += [x.left, x.right]


@pytest.mark.parametrize("path,bound", [(CHAIN3, 8), (FIG1, None)])
def test_equal_subtrees_are_one_object(path, bound):
    rep = explore(env_net(path), bound=bound, keep_states=True)
    objects: dict = {}   # subtree value -> {id: object}
    occurrences = 0
    for net_state, _ in rep.state_index.values():
        for x in subtrees(net_state):
            objects.setdefault(x, {})[id(x)] = x
            occurrences += 1
    assert occurrences > len(objects)
    shared = [v for v in objects.values() if len(v) > 1]
    assert shared == []


@pytest.mark.parametrize("path,bound", [(FIG1, None), (STALE_LINKS, 58)])
def test_interned_states_digest_as_built(path, bound):
    # Every state an automaton interns must digest like the state it was
    # asked for, or the explorer's keys and the counterexample files
    # would change: ``==`` must imply equal digests on reached states.
    auto = env_net(path)
    calls, canonical = [0], set()

    def checked(intern, make):
        def build(*parts):
            got = intern(*parts)
            assert bdigest(got) == bdigest(make(*parts))
            calls[0] += 1
            canonical.add(id(got))
            return got
        return build

    for a in automata(auto):
        if isinstance(a, NodeAutomaton):
            a._node = checked(a._node, NodeS)
        else:
            a._pair = checked(a._pair, SubnetS)
    rep = explore(auto, bound=bound)
    assert rep.complete == (bound is None)
    # many builds were answered by an object built before
    assert calls[0] > 2 * len(canonical) > 0


@pytest.mark.parametrize("path,bound", [(CHAIN3, 8), (FIG1, None)])
def test_numbers_stand_for_digests(path, bound):
    # The explorer keys states by these numbers, so each must stand for
    # one digest value among its table's states, and each digest value
    # for one number.  Node states compare finer than they digest, so
    # numbering them by value would break this.
    auto = env_net(path)
    explore(auto, bound=bound)
    tables = [a._states.values() for a in automata(auto)]
    tables.append(auto._envs.values())
    for states in tables:
        numbers = {s._n for s in states}
        assert numbers == set(range(len(numbers)))
        pairs = {(s._n, bdigest(s)) for s in states}
        assert len(pairs) == len(numbers) == len({d for _, d in pairs})


def test_root_states_enter_no_table():
    auto = env_net(CHAIN3)
    root = auto.net.net
    explore(auto, bound=8)
    held = {id(s) for s in root._states.values()}
    assert held <= {id(s) for s in root.init}
    # a root successor that nothing holds is freed
    (init,) = auto.init
    refs = [weakref.ref(r.target[0]) for r in auto.rich_steps(init)]
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_two_networks_share_no_interned_state():
    sc = load_scenario(os.path.join(ROOT, CHAIN3))
    table = build_table(sc.cfg)
    nets = [env_net(CHAIN3, table) for _ in range(2)]
    reps = [explore(n, bound=8, keep_states=True) for n in nets]
    held = [{id(s) for a in automata(n) for s in a._states.values()}
            for n in nets]
    assert held[0] and held[1]
    assert not held[0] & held[1]
    # the two still reach equal states
    assert (set(reps[0].state_index.values())
            == set(reps[1].state_index.values()))
