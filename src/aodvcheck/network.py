"""Network instances: from a list of named nodes to a runnable automaton.

A network is described by its nodes: an ordered tuple of (address,
initial neighbours) pairs.  Each node runs the protocol process next to
a FIFO message queue, and the nodes compose in parallel, right-nested in
list order (the paper's ``N1 || (N2 || ...)``).  ``closed_net`` produces
the fully assembled automaton whose only openness to the world is
new-packet injection and topology changes.

The second half projects data back out of network states: ``net_data``
gives each node's data record, and ``GlobalView`` totalizes such a
record map over all addresses.
"""
from __future__ import annotations

from .awn import (Call, ClosedAutomaton, ModelError, NetAutomaton,
                  NodeAutomaton, NodeS, ParAutomaton, ProcState, SeqAutomaton,
                  SubnetAutomaton, SubnetS)
from .protocol import BASE, VariantConfig, aodv_init, build_table, queue_table


# Each process starts as a call of its body, the term it is at whenever
# it loops back, so that its initial state compares equal to any later
# state with the same data.  The calls are built once: a table's label
# memo is keyed by term identity and tables are shared between runs, so
# a fresh call per run would add an entry to it on every run.
_AODV_START = Call("aodv")
_QUEUE_START = Call("qmsg")


def node_automaton(ip: int, nbrs: frozenset, table, qtable) -> NetAutomaton:
    proto = SeqAutomaton(table, (ProcState(aodv_init(ip), _AODV_START, table),))
    queue = SeqAutomaton(qtable, (ProcState((), _QUEUE_START, qtable),))
    return NodeAutomaton(ip, ParAutomaton(proto, queue), nbrs)


def build_net(nodes, cfg: VariantConfig = BASE, table=None) -> NetAutomaton:
    """The network of ``nodes``, (ip, neighbours) pairs, composed right-nested.

    The first node is the root's left child and the rest compose the
    same way into its right child; a single node is its own network.
    The subnet layers reject a reused address.
    """
    if table is None:
        table = build_table(cfg)
    qtable = queue_table()
    autos = [node_automaton(ip, frozenset(nbrs), table, qtable)
             for ip, nbrs in nodes]
    if not autos:
        raise ModelError("network needs at least one node")
    net = autos.pop()
    while autos:
        net = SubnetAutomaton(autos.pop(), net)
    return net


def closed_net(nodes, cfg: VariantConfig = BASE, table=None) -> NetAutomaton:
    """The closed network of ``nodes`` (see ``build_net``)."""
    return ClosedAutomaton(build_net(nodes, cfg, table))


def node_states(state) -> dict:
    """The leaf states of a network state, by address."""
    out = {}
    stack = [state]
    while stack:
        s = stack.pop()
        if isinstance(s, SubnetS):
            stack += [s.left, s.right]
        else:
            out[s.ip] = s
    return out


def proc_state(node: NodeS) -> ProcState:
    return node.inner[0]


def queue_contents(node: NodeS) -> tuple:
    return node.inner[1].data


def net_data(state) -> dict:
    """Each node's data record, keyed by address."""
    return {ip: proc_state(n).data for ip, n in node_states(state).items()}


class GlobalView:
    """Total address-indexed view of node data.

    Addresses outside the network read as freshly initialized nodes, so
    predicates can quantify over arbitrary addresses.
    """

    def __init__(self, data: dict):
        self._data = dict(data)

    def __getitem__(self, ip: int):
        got = self._data.get(ip)
        return aodv_init(ip) if got is None else got

    def addresses(self) -> tuple:
        return tuple(sorted(self._data))
