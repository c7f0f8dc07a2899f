"""Step semantics, layer by layer, against the reference interpreter.

Layered scheme: sequential steps are compared with ``seq_oracle`` on
every reachable state; composite layers then run the validated layer
underneath while the composition rule itself is recomputed by the
oracle.
"""
import pytest

from aodvcheck.awn import (Assign, Broadcast, Call, CastA, ClosedAutomaton,
                           ConnectA, Deliver, DeliverA, DeliverAtA,
                           DisconnectA, Guard, ModelError, NetMenu,
                           NodeAutomaton, ParAutomaton, ProcState,
                           ProcessTable, Receive, ReceiveA, Send, SendA,
                           SubnetAutomaton, TAU, Unicast, UnicastFailA,
                           choice, label_process, seq, seq_steps,
                           SeqAutomaton)
from aodvcheck.canon import FrozenMap, value_key
from aodvcheck.messages import Newpkt
from aodvcheck.protocol import queue_table

from oracle_sos import (closed_oracle, node_or_subnet_oracle, par_oracle,
                        seq_oracle)

EMPTY = frozenset()


def keys(pairs):
    return {(value_key(a), value_key(t)) for a, t in pairs}


def crawl(step_fn, inits, menus, depth):
    """All states reached by ``depth`` rounds of steps under any menu."""
    seen = {value_key(s): s for s in inits}
    frontier = list(seen.values())
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for menu in menus:
                for _, t in step_fn(s, menu):
                    k = value_key(t)
                    if k not in seen:
                        seen[k] = t
                        nxt.append(t)
        frontier = nxt
    return list(seen.values())


# --- toy processes ---------------------------------------------------------


def unicast_table():
    # data is the peer address; report which branch the attempt took
    body = Unicast(lambda xi: xi, lambda xi: ("ping", xi),
                   ok=seq(Deliver(lambda xi: "ok"), Call("u")),
                   fail=seq(Deliver(lambda xi: "fail"), Call("u")))
    return ProcessTable({"u": label_process("u", body)})


def choice_table():
    # data is a counter: deliver it when positive, or bump it
    body = choice(
        seq(Guard(lambda n: (n,) if n > 0 else ()),
            Deliver(lambda n: n), Call("c")),
        seq(Assign(lambda n: n + 1), Call("c")),
    )
    return ProcessTable({"c": label_process("c", body)})


def recursion_table():
    body = seq(Deliver(lambda n: n), Assign(lambda n: n + 1), Call("r"))
    return ProcessTable({"r": label_process("r", body)})


def chatter_table():
    # say hi while the inbox is empty; deliver whatever comes in
    body = choice(
        seq(Guard(lambda d: (d,) if d[1] == () else ()),
            Broadcast(lambda d: ("hi", d[0])), Call("t")),
        seq(Receive(lambda m, d: (d[0], d[1] + (m,))),
            Deliver(lambda d: d[1][-1]), Call("t")),
    )
    return ProcessTable({"t": label_process("t", body)})


def deaf_table():
    # busy loop that never reaches a receive
    body = seq(Assign(lambda d: d), Call("z"))
    return ProcessTable({"z": label_process("z", body)})


# --- layer 1: sequential ---------------------------------------------------


class TestSequential:
    MENUS = [EMPTY, frozenset(["m1"]), frozenset(["m1", "m2"])]

    @pytest.mark.parametrize("table,init", [
        (unicast_table(), 2),
        (choice_table(), 0),
        (recursion_table(), 0),
    ])
    def test_agrees_with_oracle(self, table, init):
        name = table.names()[0]
        start = ProcState(init, table[name], table)
        states = crawl(lambda s, m: seq_steps(table, s, m), [start],
                       self.MENUS, 4)
        assert states
        for s in states:
            for menu in self.MENUS:
                assert keys(seq_steps(table, s, menu)) == \
                    keys(seq_oracle(table, s, menu))

    def test_unicast_offers_both_outcomes(self):
        table = unicast_table()
        s = ProcState(2, table["u"], table)
        acts = {a for a, _ in seq_steps(table, s)}
        kinds = {type(a).__name__ for a in acts}
        assert kinds == {"UnicastA", "UnicastFailA"}

    def test_choice_guard_gates_one_branch(self):
        table = choice_table()
        s0 = ProcState(0, table["c"], table)
        assert {a for a, _ in seq_steps(table, s0)} == {TAU}
        assert len(seq_steps(table, s0)) == 1  # only the bump
        s1 = ProcState(1, table["c"], table)
        assert len(seq_steps(table, s1)) == 2  # guard now passes too

    def test_recursive_call_unfolds_without_a_step(self):
        table = recursion_table()
        s = ProcState(0, table["r"], table)
        for expect in (0, 1, 2):
            (step,) = [x for x in seq_steps(table, s)
                       if isinstance(x[0], DeliverA)]
            assert step[0].data == expect
            (tau,) = seq_steps(table, step[1])
            s = tau[1]
            assert isinstance(s.term, Call)
            # Call sits between iterations yet never shows up as a step

    def test_unguarded_recursion_is_detected(self):
        body = label_process("p", choice(Call("p"), seq(_sink(), Call("p"))))
        table = ProcessTable({"p": body})
        with pytest.raises(ModelError, match="unguarded"):
            seq_steps(table, ProcState(0, table["p"], table))

    def test_receive_tracks_the_menu(self):
        table = chatter_table()
        s = ProcState((1, ()), table["t"], table)
        got = {a.msg for a, _ in seq_steps(table, s, frozenset(["x", "y"]))
               if isinstance(a, ReceiveA)}
        assert got == {"x", "y"}
        got = {a for a, _ in seq_steps(table, s) if isinstance(a, ReceiveA)}
        assert got == set()


def _sink():
    return Assign(lambda xi: xi)


# --- layer 2: process beside queue -----------------------------------------


class TestQueue:
    def test_fifo_order_and_atomic_pop(self):
        table = queue_table()
        q0 = ProcState((), table["qmsg"], table)
        # receive two messages, then sends must come out in order
        (r1,) = [t for a, t in seq_steps(table, q0, frozenset(["m1"]))
                 if isinstance(a, ReceiveA)]
        (r2,) = [t for a, t in seq_steps(table, r1, frozenset(["m2"]))
                 if isinstance(a, ReceiveA)]
        assert r2.data == ("m1", "m2")
        # the nonempty guard is its own internal step; the pop happens
        # only when the send itself fires
        (ready,) = [t for a, t in seq_steps(table, r2) if a == TAU]
        assert ready.data == ("m1", "m2")
        sends = [(a, t) for a, t in seq_steps(table, ready)
                 if isinstance(a, SendA)]
        assert len(sends) == 1
        a, t = sends[0]
        assert a.msg == "m1" and t.data == ("m2",)

    def test_empty_queue_only_receives(self):
        table = queue_table()
        q0 = ProcState((), table["qmsg"], table)
        assert seq_steps(table, q0) == ()


def combo_table():
    # one table holding both a consumer and the queue, so the parallel
    # oracle can run both sides
    consumer = seq(Receive(lambda m, d: d + (m,)),
                   Deliver(lambda d: d[-1]), Call("eat"))
    q = choice(
        Receive(lambda m, q: q + (m,), Call("q")),
        Guard(lambda q: (q,) if q else (),
              Send(lambda q: q[0], Call("q"), update=lambda q: q[1:])),
    )
    return ProcessTable({"eat": label_process("eat", consumer),
                         "q": label_process("q", q)})


class TestParallel:
    def test_agrees_with_oracle(self):
        table = combo_table()
        auto = ParAutomaton(SeqAutomaton(table, frozenset([ProcState((), table["eat"], table)])),
                            SeqAutomaton(table, frozenset([ProcState((), table["q"], table)])))
        menus = [EMPTY, frozenset(["a"]), frozenset(["a", "b"])]
        states = crawl(auto.steps, auto.init, menus, 4)
        assert len(states) > 4
        for s in states:
            for menu in menus:
                assert keys(auto.steps(s, menu)) == keys(par_oracle(table, s, menu))

    def test_receive_send_becomes_internal(self):
        table = combo_table()
        auto = ParAutomaton(SeqAutomaton(table, frozenset([ProcState((), table["eat"], table)])),
                            SeqAutomaton(table, frozenset([ProcState((), table["q"], table)])))
        (s0,) = auto.init
        # queue takes "a" from outside
        (s1,) = [t for a, t in auto.steps(s0, frozenset(["a"]))
                 if isinstance(a, ReceiveA)]
        # handover is a tau, never a visible send
        acts = {type(a).__name__ for a, _ in auto.steps(s1)}
        assert "SendA" not in acts
        assert "TauA" in acts


# --- network layers ---------------------------------------------------------


def _node(table, name, ip, nbrs, data):
    inner = SeqAutomaton(table, frozenset([ProcState(data, table[name], table)]))
    return NodeAutomaton(ip, inner, frozenset(nbrs))


def net_menus():
    return [
        NetMenu(),
        NetMenu(newpkts=FrozenMap({1: (Newpkt("x", 2),)})),
        NetMenu(links=frozenset([DisconnectA(1, 2)])),
        NetMenu(links=frozenset([ConnectA(1, 3)])),
    ]


class TestNodeLayer:
    def test_agrees_with_oracle(self):
        table = chatter_table()
        auto = _node(table, "t", 1, {2}, (1, ()))
        menus = net_menus()
        states = crawl(auto.steps, auto.init, menus, 3)
        for s in states:
            for menu in menus:
                assert keys(auto.steps(s, menu)) == \
                    keys(node_or_subnet_oracle(auto, s, menu))

    def test_unicast_in_range_casts_and_out_of_range_fails(self):
        table = unicast_table()
        in_range = _node(table, "u", 1, {2}, 2)
        (s,) = in_range.init
        acts = {a for a, _ in in_range.steps(s)}
        assert acts == {CastA(frozenset([2]), ("ping", 2))}

        out_of_range = _node(table, "u", 1, {3}, 2)
        (s,) = out_of_range.init
        steps = out_of_range.steps(s)
        assert {a for a, _ in steps} == {TAU}
        (fail_state,) = [t for _, t in steps]
        # the failure branch is now committed
        acts = {a for a, _ in out_of_range.steps(fail_state)}
        assert acts == {DeliverAtA(1, "fail")}

    def test_link_events_update_neighbours(self):
        table = chatter_table()
        auto = _node(table, "t", 1, {2}, (1, ()))
        (s,) = auto.init
        menu = NetMenu(links=frozenset([DisconnectA(1, 2)]))
        (t,) = [t for a, t in auto.steps(s, menu)
                if isinstance(a, DisconnectA)]
        assert t.nbrs == frozenset()
        menu = NetMenu(links=frozenset([DisconnectA(2, 3)]))
        (t,) = [t for a, t in auto.steps(s, menu)
                if isinstance(a, DisconnectA)]
        assert t.nbrs == frozenset([2])  # not involved, state untouched


class TestSubnetLayer:
    def _both(self):
        table = chatter_table()
        left = _node(table, "t", 1, {2}, (1, ()))
        right = _node(table, "t", 2, {1}, (2, ()))
        return SubnetAutomaton(left, right)

    def test_agrees_with_oracle(self):
        auto = self._both()
        menus = net_menus()
        states = crawl(auto.steps, auto.init, menus, 3)
        assert len(states) > 8
        for s in states:
            for menu in menus:
                assert keys(auto.steps(s, menu)) == \
                    keys(node_or_subnet_oracle(auto, s, menu))

    def test_cast_forces_in_range_hearing(self):
        auto = self._both()
        (s,) = auto.init
        # each node first passes its idle guard, then may speak
        casts = []
        for _, mid in auto.steps(s):
            casts += [(a, t) for a, t in auto.steps(mid)
                      if isinstance(a, CastA)]
        assert {a.msg for a, _ in casts} == {("hi", 1), ("hi", 2)}
        for a, t in casts:
            if a.msg == ("hi", 1):
                heard = t.right.inner.data
                assert heard == (2, (("hi", 1),))

    def test_cast_blocks_when_a_hearer_cannot_receive(self):
        table = chatter_table()
        dtable = deaf_table()
        speaker = _node(table, "t", 1, {2}, (1, ()))
        deaf = _node(dtable, "z", 2, {1}, 0)
        auto = SubnetAutomaton(speaker, deaf)
        (s,) = auto.init
        casts = [a for a, _ in auto.steps(s) if isinstance(a, CastA)]
        assert casts == []  # node 2 is in range but cannot take the message
        # the deaf node's own internal step still interleaves
        assert any(a == TAU for a, _ in auto.steps(s))

    def test_unicast_failures_show_as_tau(self):
        # each node's peer is out of range, so its unicast fails; the
        # record keeps the failure, which every layer shows as Tau
        table = unicast_table()
        one = _node(table, "u", 1, frozenset(), 2)
        two = _node(table, "u", 2, frozenset(), 1)
        auto = SubnetAutomaton(one, two)
        (s,) = auto.init
        for layer, state in ((one, s.left), (two, s.right), (auto, s),
                             (ClosedAutomaton(auto), s)):
            rich = layer.rich_steps(state)
            assert [type(r.detail) for r in rich] == \
                [UnicastFailA] * len(rich)
            assert rich
            assert layer.steps(state) == tuple((TAU, r.target) for r in rich)

    def test_out_of_range_nodes_are_untouched_by_casts(self):
        table = chatter_table()
        speaker = _node(table, "t", 1, frozenset(), (1, ()))
        other = _node(table, "t", 2, frozenset(), (2, ()))
        auto = SubnetAutomaton(speaker, other)
        (s,) = auto.init
        found = []
        for _, mid in auto.steps(s):
            found += [(mid, a, t) for a, t in auto.steps(mid)
                      if isinstance(a, CastA) and a.msg == ("hi", 1)]
        assert found
        for mid, a, t in found:
            assert a.dests == frozenset()
            assert t.right is mid.right


class TestClosedLayer:
    def _closed_pair(self):
        table = chatter_table()
        left = _node(table, "t", 1, {2}, (1, ()))
        right = _node(table, "t", 2, {1}, (2, ()))
        return ClosedAutomaton(SubnetAutomaton(left, right))

    def test_agrees_with_oracle(self):
        auto = self._closed_pair()
        menus = net_menus()
        states = crawl(auto.steps, auto.init, menus, 4)
        for s in states:
            for menu in menus:
                assert keys(auto.steps(s, menu)) == \
                    keys(closed_oracle(auto, s, menu))

    def test_casts_become_internal_but_keep_their_shape(self):
        auto = self._closed_pair()
        (s,) = auto.init
        casts = 0
        for r in auto.rich_steps(s):
            shown = auto.steps(r.target)
            assert not any(isinstance(a, CastA) for a, _ in shown)
            for r2 in auto.rich_steps(r.target):
                if isinstance(r2.detail, CastA):
                    casts += 1
                    assert (TAU, r2.target) in shown
        assert casts
