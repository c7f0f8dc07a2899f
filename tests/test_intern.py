"""Interned node and subnet states: one object per distinct subtree value.

Each node and subnet automaton below the root keeps a table of the
states it has built, and hands out the one built first whenever a new
state equals it, and numbers each state it interns.  These tests check
that reached subtrees are shared that way, that the interned object
digests like the state it replaces, that reached process states are
equal exactly when they digest equal, that the numbers stand for
digests, that root states enter no table, and that tables belong to one
network.  The step memos key on the identity of a menu's projection
onto the subtree, so the last tests check that a menu equal in value to
another, or differing only in another node's budget, gives the same
steps, that the closed layer strips a menu of its messages once, that
memoized process steps are the ones a fresh call builds, and how many
entries the node and subnet memos hold on chain3.
"""
import gc
import os
import weakref

import pytest

from aodvcheck.awn import (DisconnectA, NetMenu, NodeAutomaton, NodeS,
                           SubnetAutomaton, SubnetS, seq_steps)
from aodvcheck.canon import FrozenMap, bdigest
from aodvcheck.explore import EnvNet, explore
from aodvcheck.messages import Newpkt
from aodvcheck.network import build_net, closed_net, tree_of
from aodvcheck.protocol import build_table
from aodvcheck.scenario import load_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHAIN3 = "scenarios/chain3.json"
FIG1 = "scenarios/fig1.json"
PAIR2 = "scenarios/pair2.json"
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


@pytest.mark.parametrize("path,bound",
                         [(PAIR2, None), (FIG1, None), (CHAIN3, 8)])
def test_process_states_are_equal_iff_they_digest_equal(path, bound):
    # Node automata number node states by value, which tells them apart
    # as digests do only if their protocol and queue states are equal
    # exactly when they digest equal.  Calls compare by name for this:
    # a queue reaches its loop through several ``Call("qmsg")`` objects.
    auto = env_net(path)
    explore(auto, bound=bound)
    digests: dict = {}   # process state value -> digests of its objects
    objects = set()
    for a in automata(auto):
        if isinstance(a, NodeAutomaton):
            for s in a._states:
                for proc in s.inner:
                    digests.setdefault(proc, set()).add(bdigest(proc))
                    objects.add(id(proc))
    # many values are held by several objects
    assert len(objects) > len(digests) > 20
    assert all(len(d) == 1 for d in digests.values())
    assert len(set.union(*digests.values())) == len(digests)


@pytest.mark.parametrize("path,bound", [(CHAIN3, 8), (FIG1, None)])
def test_numbers_stand_for_digests(path, bound):
    # The explorer keys states by these numbers, so each must stand for
    # one digest value among its table's states, and each digest value
    # for one number.  Node states are numbered by value, so this holds
    # because reached node states are equal exactly when they digest
    # equal (see the test above).
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


def _pair_net():
    return build_net(tree_of([(1, [2]), (2, [1])]))


def _busy_menu():
    return NetMenu((("hi", 9),), FrozenMap({1: (Newpkt("x", 2),)}),
                   (DisconnectA(1, 2),))


def test_menus_equal_in_value_give_equal_steps():
    # A menu compares by identity, but each automaton projects it onto
    # one object per value, so a copy hits the memo.
    subnet = _pair_net()
    (s,) = subnet.init
    for auto, state in ((subnet.left, s.left), (subnet, s)):
        m1, m2 = _busy_menu(), _busy_menu()
        assert m1 != m2
        first = auto.rich_steps(state, m1)
        size = len(auto._steps_memo)
        again = auto.rich_steps(state, m2)
        assert len(auto._steps_memo) == size
        assert again == first and again is first
        assert len(first) > 3


def test_closed_layer_strips_a_menu_once():
    net = closed_net(tree_of([(1, [2]), (2, [1])]))
    (s,) = net.init
    menu = _busy_menu()
    first = net.rich_steps(s, menu)
    nodes = (net.net.left, net.net.right)
    sizes = [len(a._steps_memo) for a in nodes]
    assert net.rich_steps(s, menu) == first
    assert [len(a._steps_memo) for a in nodes] == sizes


def test_another_nodes_budget_is_projected_away():
    # A node reads only its own new-packet budget, so two menus that
    # differ only in another node's budget give it one memo entry.
    subnet = _pair_net()
    (s,) = subnet.init
    busy = _busy_menu()
    more = NetMenu(busy.messages,
                   FrozenMap({**busy.newpkts, 2: (Newpkt("y", 1),)}),
                   busy.links)
    node, state = subnet.left, s.left
    assert node.ip == 1
    first = node.rich_steps(state, busy)
    again = node.rich_steps(state, more)
    assert again is first
    assert len(node._steps_memo) == 1
    # the other node sees the budgets differ
    other, state = subnet.right, s.right
    assert other.rich_steps(state, busy) != other.rich_steps(state, more)
    assert len(other._steps_memo) == 2


@pytest.mark.parametrize("path,bound", [(STALE_LINKS, 58), (FIG1, None)])
def test_memoized_process_steps_are_fresh_steps(path, bound):
    # Every answer of a process automaton's memo must be the tuple that
    # a fresh ``seq_steps`` builds, in the same order.
    auto = env_net(path)
    hits = [0]

    def checked(a):
        steps = a.steps

        def check(state, menu=()):
            hits[0] += (state, menu) in a._steps_memo
            got = steps(state, menu)
            assert got == seq_steps(a.table, state, menu)
            return got
        return check

    for a in automata(auto):
        if isinstance(a, NodeAutomaton):
            for seq in (a.inner.left, a.inner.right):
                seq.steps = checked(seq)
    rep = explore(auto, bound=bound)
    assert rep.complete == (bound is None)
    assert hits[0] > 0


def test_chain3_memo_sizes():
    # The node and subnet memos key on the menu each subtree can see, so
    # a change in another node's budget costs no entry.  Root first, then
    # left to right; the root is expanded unmemoized.
    auto = env_net(CHAIN3)
    explore(auto, bound=32)
    sizes = [len(a._steps_memo) for a in automata(auto)]
    assert sizes == [0, 363, 4047, 581, 369]
    assert sum(sizes) == 5360
