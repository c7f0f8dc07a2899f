"""Rule-by-rule reference interpreter used as an oracle.

Each structural rule of the semantics is spelled out longhand and
recomputed from scratch on every call, with none of the menu threading
or caching the package uses.  Tests compare its transition sets against
the real step functions, layer by layer: when checking a composite
layer the components underneath run on the already-validated
implementation.  As in the package, the environment offers the network
layers only new packets and link events: a node is offered its own new
packets, and receives another node's message only by cast delivery.
"""
from aodvcheck.awn import (Assign, Broadcast, BroadcastA, Call, CastA, Choice,
                           ConnectA, DeliverA, DeliverAtA, Deliver,
                           DisconnectA, Groupcast, GroupcastA, Guard, NewpktA,
                           NodeAutomaton, NodeS, ProcState, Receive, ReceiveA,
                           Send, SendA, SubnetAutomaton, SubnetS, TAU, Unicast,
                           UnicastA, UnicastFailA)

EMPTY = frozenset()


def seq_oracle(table, ps, menu=EMPTY):
    """All (action, ProcState) pairs of a sequential process."""

    def rules(xi, t, calls):
        match t:
            case Assign():
                return {(TAU, ProcState(t.update(xi), t.cont, table))}
            case Guard():
                return {(TAU, ProcState(xi2, t.cont, table))
                        for xi2 in t.test(xi)}
            case Broadcast():
                return {(BroadcastA(t.msg(xi)), ProcState(xi, t.cont, table))}
            case Groupcast():
                return {(GroupcastA(frozenset(t.dests(xi)), t.msg(xi)),
                         ProcState(xi, t.cont, table))}
            case Unicast():
                return {(UnicastA(t.dest(xi), t.msg(xi)),
                         ProcState(xi, t.ok, table)),
                        (UnicastFailA(t.dest(xi)),
                         ProcState(xi, t.fail, table))}
            case Send():
                xi2 = xi if t.update is None else t.update(xi)
                return {(SendA(t.msg(xi)), ProcState(xi2, t.cont, table))}
            case Receive():
                return {(ReceiveA(m), ProcState(t.update(m, xi), t.cont, table))
                        for m in menu}
            case Deliver():
                return {(DeliverA(t.data(xi)), ProcState(xi, t.cont, table))}
            case Choice():
                return rules(xi, t.left, calls) | rules(xi, t.right, calls)
            case Call():
                assert t.name not in calls, "unguarded recursion"
                return rules(xi, table[t.name], calls | {t.name})
        raise AssertionError(f"unmatched term {t!r}")

    return rules(ps.data, ps.term, frozenset())


def par_oracle(table, state, menu=EMPTY):
    """Protocol-beside-queue composition, rules written out directly."""
    l, r = state
    # every message the queue could emit right now
    feeds = {a.msg for a, _ in seq_oracle(table, r, menu)
             if isinstance(a, SendA)}
    out = set()
    for a, l2 in seq_oracle(table, l, feeds):
        if isinstance(a, ReceiveA):
            for b, r2 in seq_oracle(table, r, menu):
                if isinstance(b, SendA) and b.msg == a.msg:
                    out.add((TAU, (l2, r2)))
        else:
            out.add((a, (l2, r)))
    for b, r2 in seq_oracle(table, r, menu):
        if not isinstance(b, SendA):
            out.add((b, (l, r2)))
    return out


def _inner_steps(auto, inner, menu_msgs):
    """Steps of a node's interior, using the (validated) layer below."""
    return auto.inner.steps(inner, menu_msgs)


def node_oracle(auto, state, menu):
    """Visible behaviour of one node, rule by rule."""
    ip = state.ip
    local_new = frozenset(menu.newpkts.get(ip, EMPTY))
    out = set()
    for a, inner2 in _inner_steps(auto, state.inner, local_new):
        nxt = NodeS(ip, inner2, state.nbrs)
        if isinstance(a, BroadcastA):
            out.add((CastA(state.nbrs, a.msg), nxt))
        elif isinstance(a, GroupcastA):
            out.add((CastA(state.nbrs & a.dests, a.msg), nxt))
        elif isinstance(a, UnicastA) and a.dest in state.nbrs:
            out.add((CastA(frozenset([a.dest]), a.msg), nxt))
        elif isinstance(a, UnicastFailA) and a.dest not in state.nbrs:
            out.add((TAU, nxt))
        elif isinstance(a, ReceiveA) and a.msg in local_new:
            out.add((NewpktA(ip, a.msg.data, a.msg.dip), nxt))
        elif isinstance(a, DeliverA):
            out.add((DeliverAtA(ip, a.data), nxt))
        elif a == TAU:
            out.add((TAU, nxt))
    for ev in menu.links:
        pair = {ev.a, ev.b}
        if ip in pair:
            other = (pair - {ip}).pop()
            if isinstance(ev, ConnectA):
                nbrs = state.nbrs | {other}
            else:
                nbrs = state.nbrs - {other}
            out.add((ev, NodeS(ip, state.inner, nbrs)))
        else:
            out.add((ev, state))
    return out


def deliver_oracle(auto, state, msg, dests):
    """All ways a cast lands on a (sub)network; empty means blocked."""
    if isinstance(auto, NodeAutomaton):
        if state.ip not in dests:
            return {state}
        return {NodeS(state.ip, inner2, state.nbrs)
                for a, inner2 in _inner_steps(auto, state.inner,
                                              frozenset([msg]))
                if isinstance(a, ReceiveA) and a.msg == msg}
    combos = set()
    for l2 in deliver_oracle(auto.left, state.left, msg, dests):
        for r2 in deliver_oracle(auto.right, state.right, msg, dests):
            combos.add(SubnetS(l2, r2))
    return combos


def subnet_oracle(auto, state, menu):
    """Parallel network composition, each rule spelled out."""
    lsteps = node_or_subnet_oracle(auto.left, state.left, menu)
    rsteps = node_or_subnet_oracle(auto.right, state.right, menu)
    out = set()
    for a, l2 in lsteps:
        if isinstance(a, (NewpktA, DeliverAtA)) or a == TAU:
            out.add((a, SubnetS(l2, state.right)))
        elif isinstance(a, CastA):
            for r2 in deliver_oracle(auto.right, state.right, a.msg, a.dests):
                out.add((a, SubnetS(l2, r2)))
    for a, r2 in rsteps:
        if isinstance(a, (NewpktA, DeliverAtA)) or a == TAU:
            out.add((a, SubnetS(state.left, r2)))
        elif isinstance(a, CastA):
            for l2 in deliver_oracle(auto.left, state.left, a.msg, a.dests):
                out.add((a, SubnetS(l2, r2)))
    for a, l2 in lsteps:
        if isinstance(a, (ConnectA, DisconnectA)):
            for b, r2 in rsteps:
                if b == a:
                    out.add((a, SubnetS(l2, r2)))
    return out


def node_or_subnet_oracle(auto, state, menu):
    if isinstance(auto, NodeAutomaton):
        return node_oracle(auto, state, menu)
    return subnet_oracle(auto, state, menu)


def closed_oracle(auto, state, menu):
    """Top closure: casts turn internal."""
    out = set()
    for a, s2 in node_or_subnet_oracle(auto.net, state, menu):
        if isinstance(a, CastA):
            out.add((TAU, s2))
        else:
            out.add((a, s2))
    return out
