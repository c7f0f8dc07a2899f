"""Hash-consed states: one object per distinct value below the root.

Each node and subnet automaton below the root interns the states it
builds in a table, hands out the one built first whenever a new state
equals it, and numbers each state it interns.  A subnet's table is its
own; a node's is that of every node at its address over its process
tables, which the protocol table keeps with the node memos.  Process
states are interned and numbered the same way by their
``ProcessTable``, which every automaton, run and seed of one
configuration shares, with its step memo.  These tests check that
reached subtrees are shared that way, that the interned object digests
like the state it replaces, that a table holds one object per process
state value across nodes and that reached process states are equal
exactly when they digest equal, that the numbers stand for digests in
every table, that a table numbers only copies of the initial states it
is given, that nodes share queue-state objects, that a search hashes a
process state only where it enters a table and a node state never, that
root states enter no table, and that two networks share process and
node states but no subnet state.  The step memos key on state numbers
and on the identity of a menu's projection onto the subtree, so the
next tests check that a menu equal in value to another, or differing
only in another node's budget, gives the same steps, that memoized
process steps and cast deliveries are the ones a fresh call builds, how
many entries the node and subnet step and cast memos hold on chain3,
that a node's cast memo keys every range by the node's own address set,
and how many states each node's table holds on fig1 and chain3.  The
last tests check that simulation seeds share the process and node steps
of their tables but no subnet memo, how many node, pair and process
step sets the benchmark's first simulation batch builds, and that a
simulation and a search come out the same on fresh tables and on ones
that earlier runs have warmed.  Tests that count calls or table sizes
run on new tables (``helpers.fresh_tables``), so that no earlier test
changes them.
"""
import gc
import json
import os
import weakref

import pytest

from aodvcheck import awn, simulate
from aodvcheck.awn import (Call, ConnectA, DisconnectA, NetMenu, NodeAutomaton,
                           NodeS, ParAutomaton, ProcessTable, ProcState,
                           SeqAutomaton, SubnetAutomaton, SubnetS, seq_steps)
from aodvcheck.canon import FrozenMap, bdigest
from aodvcheck.cli import EXIT_PASS, EXIT_VIOLATION, main
from aodvcheck.explore import EnvNet, explore
from aodvcheck.messages import Newpkt
from aodvcheck.network import build_net, closed_net
from aodvcheck.protocol import build_table, queue_table
from aodvcheck.scenario import load_scenario
from aodvcheck.simulate import Schedule

from helpers import fresh_tables

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHAIN3 = "scenarios/chain3.json"
FIG1 = "scenarios/fig1.json"
PAIR2 = "scenarios/pair2.json"
STALE_LINKS = "bench/scenarios/pair2_links_stale.json"
CHAIN3_STALE = "bench/scenarios/chain3_stale.json"
LINE3_CROSS = "scenarios/line3_cross.json"


def env_net(path, table=None) -> EnvNet:
    sc = load_scenario(os.path.join(ROOT, path))
    return EnvNet(closed_net(sc.tree, sc.cfg, table), sc.env)


def automata(auto):
    """The automata of an ``EnvNet`` or closed network, root first.

    These are the subnet, node and process automata, each node followed
    by its protocol and queue; a node's ``ParAutomaton`` keeps no table.
    """
    todo = [auto.net.net if isinstance(auto, EnvNet) else auto.net]
    while todo:
        a = todo.pop()
        if isinstance(a, ParAutomaton):
            todo += [a.right, a.left]
            continue
        yield a
        if isinstance(a, SubnetAutomaton):
            todo += [a.right, a.left]
        elif isinstance(a, NodeAutomaton):
            todo.append(a.inner)


def owners(auto):
    """Whatever keeps an intern table for ``auto``'s states, root first.

    These are its subnet and node automata, and the process table of
    each process automaton, each table once.
    """
    seen = set()
    for a in automata(auto):
        a = a.table if isinstance(a, SeqAutomaton) else a
        if id(a) not in seen:
            seen.add(id(a))
            yield a


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
def test_interned_states_digest_as_built(path, bound, monkeypatch):
    # Every state a table interns must digest like the state it was
    # asked for, or the explorer's keys and the counterexample files
    # would change: ``==`` must imply equal digests on reached states.
    # The process tables are new, so that every process state this
    # search reaches is interned here.
    fresh_tables(monkeypatch)
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

    for a in owners(auto):
        if isinstance(a, ProcessTable):
            monkeypatch.setattr(a, "intern",
                                checked(a.intern, lambda state: state))
        elif isinstance(a, NodeAutomaton):
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
    # Process tables number their states by value, which tells them
    # apart as digests do only if protocol and queue states are equal
    # exactly when they digest equal; node numbers are built on theirs.
    # Calls compare by name for this: a queue reaches its loop through
    # several ``Call("qmsg")`` objects.  A table holds one object per
    # value for all the nodes over it, so a queue state that several
    # nodes reach is one object, held by each of them.
    auto = env_net(path)
    explore(auto, bound=bound)
    objects: dict = {}   # process state value -> ids of its objects
    nodes: dict = {}     # process state value -> addresses that hold it
    for a in automata(auto):
        if isinstance(a, NodeAutomaton):
            for s in a._states.values():
                for proc in s.inner:
                    objects.setdefault(proc, set()).add(id(proc))
                    nodes.setdefault(proc, set()).add(s.ip)
                    assert proc.table._states[proc] is proc
    assert len(objects) > 20
    assert all(len(ids) == 1 for ids in objects.values())
    assert any(len(ips) > 1 for ips in nodes.values())
    assert len({bdigest(proc) for proc in objects}) == len(objects)


@pytest.mark.parametrize("path,bound", [(CHAIN3, 8), (FIG1, None)])
def test_numbers_stand_for_digests(path, bound, monkeypatch):
    # The explorer keys states by these numbers, so each must stand for
    # one digest value among its table's states, and each digest value
    # for one number, held by one object.  Process states are numbered
    # by value, and node states by their process states' numbers, so
    # this holds because reached process states are equal exactly when
    # they digest equal (see the test above).  The process tables are
    # new, so that they hold this search's states only.
    fresh_tables(monkeypatch)
    auto = env_net(path)
    explore(auto, bound=bound)
    kinds = {type(a) for a in owners(auto)}
    assert kinds == {ProcessTable, NodeAutomaton, SubnetAutomaton}
    tables = [list(a._states.values()) for a in owners(auto)]
    tables.append(list(auto._envs.values()))
    for states in tables:
        numbers = {s._n for s in states}
        assert numbers == set(range(len(states)))
        assert len({id(s) for s in states}) == len(states)
        pairs = {(s._n, bdigest(s)) for s in states}
        assert len(pairs) == len(numbers) == len({d for _, d in pairs})


def test_process_automata_number_their_own_copies():
    # A table numbers only objects it built, so two automata given one
    # initial object share one numbered copy of it, and the given object
    # stays unnumbered.
    qtable = queue_table.__wrapped__()
    given = ProcState((), Call("qmsg"), qtable)
    one, two = (SeqAutomaton(qtable, (given,)) for _ in range(2))
    (a,), (b,) = one.init, two.init
    assert a is b
    assert a == given and a is not given
    assert a._n == 0
    assert not hasattr(given, "_n")
    assert qtable._states[given] is a
    # a successor is built and numbered once, by the table, for both
    ((_, s1),) = one.steps(a, ("m",))
    ((_, s2),) = two.steps(b, ("m",))
    assert s1 is s2 and s1._n == 1
    assert qtable._states[s1] is s1
    assert len(qtable._states) == 2 and len(qtable._steps_memo) == 1


def test_equal_queue_states_of_two_nodes_are_one_object():
    # On fig1 several nodes' queues hold the same broadcasts.  All queue
    # automata intern into the one queue table, so such a value is one
    # object, held by every node that reaches it and numbered by its
    # place in that table.
    auto = env_net(FIG1)
    explore(auto)
    nodes = [a for a in automata(auto) if isinstance(a, NodeAutomaton)]
    assert len(nodes) == 4
    qtable = queue_table()
    assert all(n.inner.right.table is qtable for n in nodes)
    held = [{s.inner[1]: s.inner[1] for s in n._states.values()}
            for n in nodes]
    shared = 0
    for i, one in enumerate(held):
        for other in held[i + 1:]:
            for value in one.keys() & other.keys():
                assert one[value] is other[value] is qtable._states[value]
                shared += 1
    assert shared > len(held) * (len(held) - 1) // 2   # not just init
    assert ([s._n for s in qtable._states.values()]
            == list(range(len(qtable._states))))


def test_a_search_hashes_process_states_only_where_they_are_interned(
        monkeypatch):
    # Every table and memo below the root keys on numbers, so a process
    # state is hashed only as it enters its table (and in ``seq_steps``'s
    # duplicate check, which builds it), and a node state is never
    # hashed.  Keyed by value, this search hashed each process state
    # about 36 times and node states 7,244 times.  The tables are new,
    # so that the counts do not depend on what ran before.
    fresh_tables(monkeypatch)
    counts = {"ProcState": 0, "NodeS": 0, "built": 0}

    def counted(cls, name, tally):
        orig = cls.__dict__[name]

        def wrapper(self, *args, **kwargs):
            counts[tally] += 1
            return orig(self, *args, **kwargs)
        return wrapper

    auto = env_net(STALE_LINKS)
    monkeypatch.setattr(ProcState, "__hash__",
                        counted(ProcState, "__hash__", "ProcState"))
    monkeypatch.setattr(NodeS, "__hash__", counted(NodeS, "__hash__", "NodeS"))
    monkeypatch.setattr(ProcState, "__init__",
                        counted(ProcState, "__init__", "built"))
    rep = explore(auto, bound=58)
    assert rep.states == 10829
    assert counts["built"] > 500
    assert counts["ProcState"] <= 4 * counts["built"]
    assert counts["NodeS"] == 0


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


def test_two_networks_share_process_and_node_states_not_subnet_states():
    # Subnet states are interned per network.  Node states are interned
    # in the node tables that their process table keeps per address, and
    # process states by their table, so both networks share them.
    sc = load_scenario(os.path.join(ROOT, CHAIN3))
    table = build_table(sc.cfg)
    nets = [env_net(CHAIN3, table) for _ in range(2)]
    reps = [explore(n, bound=8, keep_states=True) for n in nets]
    subnets = [{id(s) for a in automata(n) if isinstance(a, SubnetAutomaton)
                for s in a._states.values()}
               for n in nets]
    assert subnets[0] and subnets[1]
    assert not subnets[0] & subnets[1]
    nodes = [[a for a in automata(n) if isinstance(a, NodeAutomaton)]
             for n in nets]
    assert len(nodes[0]) == len(nodes[1]) == 3
    for one, other in zip(*nodes):
        assert one is not other
        assert one._states is other._states and one._states
    procs = [{id(p) for a in automata(n) if isinstance(a, NodeAutomaton)
              for s in a._states.values() for p in s.inner}
             for n in nets]
    assert procs[0] and procs[0] == procs[1]
    # the two still reach equal states
    assert (set(reps[0].state_index.values())
            == set(reps[1].state_index.values()))


def _pair_net():
    return build_net([(1, [2]), (2, [1])])


def _busy_menu():
    return NetMenu(FrozenMap({1: (Newpkt("x", 2), Newpkt("y", 2))}),
                   (DisconnectA(1, 2), ConnectA(1, 2)))


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


def test_another_nodes_budget_is_projected_away(monkeypatch):
    # A node reads only its own new-packet budget, so two menus that
    # differ only in another node's budget give it one memo entry.  The
    # tables are new, so that the node memos hold this test's entries
    # only.
    fresh_tables(monkeypatch)
    subnet = _pair_net()
    (s,) = subnet.init
    busy = _busy_menu()
    more = NetMenu(FrozenMap({**busy.newpkts, 2: (Newpkt("y", 1),)}),
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
def test_memoized_process_steps_are_fresh_steps(path, bound, monkeypatch):
    # Every answer of a process automaton's memo must be the tuple that
    # a fresh ``seq_steps`` builds, in the same order.  The tables are
    # new, so that the nodes step their processes at all: warm node
    # tables would answer every node step.
    fresh_tables(monkeypatch)
    auto = env_net(path)
    hits = [0]

    def checked(a):
        steps = a.steps

        def check(state, menu=()):
            hits[0] += (state._n, menu) in a.table._steps_memo
            got = steps(state, menu)
            assert got == seq_steps(a.table, state, menu)
            return got
        return check

    for a in automata(auto):
        if isinstance(a, SeqAutomaton):
            a.steps = checked(a)
    rep = explore(auto, bound=bound)
    assert rep.complete == (bound is None)
    assert hits[0] > 0


@pytest.mark.parametrize("path,bound", [(STALE_LINKS, 58), (FIG1, None)])
def test_memoized_cast_deliveries_are_fresh_deliveries(path, bound):
    # Every answer of a node's or subnet's cast memo must be the tuple
    # that a fresh ``_cast_delivery`` builds: the same interned states,
    # in the same order.  A subtree out of range is answered unchanged,
    # without the memo.
    auto = env_net(path)
    hits, outside = [0], [0]

    def checked(a):
        deliver = a.cast_delivery

        def check(state, msg, dests):
            hit = (state._n, msg, dests & a.addresses) in a._cast_memo
            got = deliver(state, msg, dests)
            if dests.isdisjoint(a.addresses):
                assert got == (state,) and got[0] is state and not hit
                outside[0] += 1
                return got
            hits[0] += hit
            fresh = a._cast_delivery(state, msg, dests)
            assert type(got) is tuple and len(got) == len(fresh)
            assert all(x is y for x, y in zip(got, fresh))
            return got
        return check

    for a in automata(auto):
        if not isinstance(a, SeqAutomaton):
            a.cast_delivery = checked(a)
    rep = explore(auto, bound=bound)
    assert rep.complete == (bound is None)
    assert hits[0] > 0 and outside[0] > 0


def test_chain3_memo_sizes(monkeypatch):
    # The node and subnet memos key on the menu each subtree can see, so
    # a change in another node's budget costs no entry.  Root first, then
    # left to right; the root is expanded unmemoized.  The tables are
    # new, since the node memos outlive a search.
    fresh_tables(monkeypatch)
    auto = env_net(CHAIN3)
    explore(auto, bound=32)
    sizes = [len(a._steps_memo) for a in automata(auto)
             if not isinstance(a, SeqAutomaton)]
    assert sizes == [0, 363, 4047, 581, 369]
    assert sum(sizes) == 5360


def test_chain3_cast_memo_sizes(monkeypatch):
    # The cast memos key on the part of the range each subtree sees, so
    # a node meets a state and message once whatever else is in range.
    # Root first, then left to right; the root delivers no cast.  The
    # tables are new, since the node memos outlive a search.
    fresh_tables(monkeypatch)
    auto = env_net(CHAIN3)
    explore(auto, bound=32)
    sizes = [len(a._cast_memo) for a in automata(auto)
             if not isinstance(a, SeqAutomaton)]
    assert sizes == [0, 27, 275, 94, 27]
    assert sum(len(a._cast_memo) for a in automata(auto)
               if isinstance(a, NodeAutomaton)) == 148


def test_node_cast_memos_key_ranges_by_the_node_address_set(monkeypatch):
    # A range that covers a subtree is keyed by the subtree's own
    # address set, so a node's cast memo keeps no set per entry.
    fresh_tables(monkeypatch)
    auto = env_net(CHAIN3)
    explore(auto, bound=32)
    nodes = [a for a in automata(auto) if isinstance(a, NodeAutomaton)]
    assert len(nodes) == 3 and all(a._cast_memo for a in nodes)
    assert all(own is a.addresses
               for a in nodes for _, _, own in a._cast_memo)


@pytest.mark.parametrize("path,bound,sizes", [
    (FIG1, None, [227, 36, 23, 13]),
    (CHAIN3, 32, [269, 446, 141]),
])
def test_node_tables_hold_only_kept_steps_targets(path, bound, sizes,
                                                  monkeypatch):
    # A node interns the target of an inner step only when it keeps the
    # step, so a dropped one (an out-of-range unicast, an in-range
    # unicast failure, a bare send) takes no number: interning every
    # inner step's target added 7 entries on fig1 and 3 on chain3.
    # Nodes left to right, on new tables, since node tables outlive a
    # search.
    fresh_tables(monkeypatch)
    auto = env_net(path)
    explore(auto, bound=bound)
    assert [len(a._states) for a in automata(auto)
            if isinstance(a, NodeAutomaton)] == sizes


def _batch(path, seeds=20, reverse=False):
    """Run the first ``seeds`` seeds of scenario ``path``'s schedule, in
    order, or last to first when ``reverse``."""
    sc = load_scenario(os.path.join(ROOT, path))
    order = range(seeds - 1, -1, -1) if reverse else range(seeds)
    return [simulate.run(sc.tree, Schedule(seed, sc.sched.max_steps,
                                           sc.sched.events),
                         sc.cfg, suites=sc.suites)
            for seed in order]


def _counting(calls: dict, tally: str, fn):
    """``fn``, counting each call in ``calls[tally]``."""
    def counted(*args):
        calls[tally] += 1
        return fn(*args)
    return counted


def _node_table_sizes(table) -> dict:
    """The sizes of the node tables that ``table`` keeps, by address."""
    return {ip: [len(t) for t in tables]
            for (_, ip), tables in table._node_tables.items()}


def test_seeds_share_process_and_node_steps(monkeypatch):
    # Runs of one configuration share its process tables, and the node
    # tables that the protocol table keeps per address, so the first
    # pass over 20 seeds of chain3_stale builds every process step and
    # node step they take, in 538 calls of ``seq_steps`` and 746 of a
    # node's ``_rich_steps`` (2,123 when every run's nodes memoized their
    # own), and a second pass builds none and adds nothing to any table.
    # The automata are each run's own, and so are its subnets, whose
    # memos start empty.
    tables, qtable = fresh_tables(monkeypatch)
    calls = {"seq": 0, "node": 0}
    build = simulate.closed_net
    nodes = []

    def closed(*args, **kwargs):
        auto = build(*args, **kwargs)
        new = [a for a in automata(auto) if isinstance(a, NodeAutomaton)]
        subnets = [a for a in automata(auto)
                   if isinstance(a, SubnetAutomaton)]
        assert len(new) == 3 and len(subnets) == 2
        assert not any(a._steps_memo or a._cast_memo for a in subnets)
        nodes.extend(new)
        return auto

    monkeypatch.setattr(awn, "seq_steps",
                        _counting(calls, "seq", awn.seq_steps))
    monkeypatch.setattr(NodeAutomaton, "_rich_steps",
                        _counting(calls, "node", NodeAutomaton._rich_steps))
    monkeypatch.setattr(simulate, "closed_net", closed)
    first = [(r.stop, r.steps) for r in _batch(CHAIN3_STALE)]
    assert calls == {"seq": 538, "node": 746}
    (table,) = tables.values()
    sizes = [(len(t._states), len(t._steps_memo)) for t in (table, qtable)]
    node_sizes = _node_table_sizes(table)
    assert sorted(node_sizes) == [1, 2, 3]
    assert all(n and m for n, m, _, _ in node_sizes.values())
    calls.update(seq=0, node=0)
    assert [(r.stop, r.steps) for r in _batch(CHAIN3_STALE)] == first
    assert calls == {"seq": 0, "node": 0}
    assert [(len(t._states), len(t._steps_memo))
            for t in (table, qtable)] == sizes
    assert _node_table_sizes(table) == node_sizes
    assert len({id(a) for a in nodes}) == 2 * 20 * 3
    assert sum(stop == "violation" for stop, _ in first) == 19


def test_sim_batch_node_and_process_step_counts(monkeypatch):
    # The 200 seeds of the benchmark's batch 0 of chain3_stale, on new
    # tables: nodes step 1,683 times and their protocol and queue pairs
    # 2,108 times (21,171 and 23,365 when every run's node memos were
    # its own), and ``seq_steps`` builds 900 process step sets.
    fresh_tables(monkeypatch)
    calls = {"seq": 0, "par": 0, "node": 0}
    monkeypatch.setattr(awn, "seq_steps",
                        _counting(calls, "seq", awn.seq_steps))
    monkeypatch.setattr(ParAutomaton, "steps",
                        _counting(calls, "par", ParAutomaton.steps))
    monkeypatch.setattr(NodeAutomaton, "_rich_steps",
                        _counting(calls, "node", NodeAutomaton._rich_steps))
    results = _batch(CHAIN3_STALE, seeds=200)
    assert calls == {"seq": 900, "par": 2108, "node": 1683}
    assert sum(r.stop == "violation" for r in results) == 198


def test_a_simulation_is_independent_of_the_tables_history(monkeypatch):
    # A run reads node states and node steps from tables that earlier
    # runs may have filled and numbered, so chain3's seeds must give the
    # same trace records on new tables as after a line3_cross batch over
    # the same addresses.  The second pass also runs the seeds last to
    # first, so that it numbers the states they share in another order.
    fresh_tables(monkeypatch)
    cold = [r.records for r in _batch(CHAIN3)]
    tables, _ = fresh_tables(monkeypatch)
    _batch(LINE3_CROSS)
    (table,) = tables.values()
    warmed = _node_table_sizes(table)
    assert sorted(warmed) == [1, 2, 3]
    assert all(n and m for n, m, _, _ in warmed.values())
    warm = [r.records for r in reversed(_batch(CHAIN3, reverse=True))]
    assert _node_table_sizes(table) != warmed
    assert warm == cold


def test_a_search_is_independent_of_the_tables_history(tmp_path, monkeypatch,
                                                       capsys):
    # A search reads its process steps from tables that earlier runs may
    # have filled, so it must come out the same on new tables as on
    # tables that a 20-seed simulate batch has warmed: the same complete
    # fig1 report, and the same pair2_links_stale report and
    # counterexample file bytes.  The batches run each scenario's own
    # network, so that they number many of the process states the
    # searches reach, in another order than a search does.
    out = tmp_path / "cx.json"
    with open(os.path.join(ROOT, STALE_LINKS)) as fh:
        doc = json.load(fh)
    doc["schedule"] = {"steps": 400, "events": {
        "0": ["newpkt", 1, "a", 2], "2": ["newpkt", 2, "b", 1],
        "40": ["disconnect", 1, 2], "80": ["connect", 1, 2]}}
    scheduled = tmp_path / "pair2_links_stale.json"
    scheduled.write_text(json.dumps(doc))

    def searches():
        got = []
        for path in (FIG1, STALE_LINKS):
            code = main(["explore", os.path.join(ROOT, path),
                         "--out", str(out)])
            cx = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            got.append((code, capsys.readouterr().out, cx))
        return got

    fresh_tables(monkeypatch)
    cold = searches()
    tables, qtable = fresh_tables(monkeypatch)
    _batch(FIG1)
    _batch(str(scheduled))
    warmed = [(len(t._states), len(t._steps_memo))
              for t in (*tables.values(), qtable)]
    assert len(warmed) == 3 and all(n and m for n, m in warmed)
    assert searches() == cold
    (fig1_code, fig1_report, fig1_cx), (code, _, cx) = cold
    assert fig1_code == EXIT_PASS and fig1_cx is None
    assert "exploration complete" in fig1_report
    assert code == EXIT_VIOLATION and cx
