"""Network instances: from a tree of named nodes to a runnable automaton.

A network is described structurally as a tree whose leaves are nodes
(address plus initial neighbours) and whose inner vertices are parallel
compositions.  Each node runs the protocol process next to a FIFO
message queue.  ``closed_net`` produces the fully assembled automaton
whose only openness to the world is new-packet injection and topology
changes.

The second half projects data back out of network states: ``net_data``
gives each node's data record, and ``GlobalView`` totalizes such a
record map over all addresses.
"""
from __future__ import annotations

from dataclasses import dataclass

from .awn import (Call, ClosedAutomaton, ModelError, NetAutomaton,
                  NodeAutomaton, NodeS, ParAutomaton, ProcState, SeqAutomaton,
                  SubnetAutomaton, SubnetS)
from .canon import cache_attr
from .protocol import BASE, VariantConfig, aodv_init, build_table, queue_table


@dataclass(frozen=True)
class Node:
    ip: int
    nbrs: frozenset


@dataclass(frozen=True)
class Par:
    left: "NetTree"
    right: "NetTree"


NetTree = Node | Par


def tree_addresses(tree: NetTree) -> tuple:
    if isinstance(tree, Node):
        return (tree.ip,)
    return tree_addresses(tree.left) + tree_addresses(tree.right)


def tree_nodes(tree: NetTree) -> tuple:
    """(ip, neighbours) pairs in tree order."""
    if isinstance(tree, Node):
        return ((tree.ip, tree.nbrs),)
    return tree_nodes(tree.left) + tree_nodes(tree.right)


def well_formed(tree: NetTree) -> bool:
    addrs = tree_addresses(tree)
    return len(addrs) == len(set(addrs))


def tree_of(nodes) -> NetTree:
    """Right-nested composition of (ip, neighbours) pairs, in given order."""
    leaves = [Node(ip, frozenset(nbrs)) for ip, nbrs in nodes]
    if not leaves:
        raise ModelError("network needs at least one node")
    out = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        out = Par(leaf, out)
    return out


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


def build_net(tree: NetTree, cfg: VariantConfig = BASE,
              table=None) -> NetAutomaton:
    if not well_formed(tree):
        raise ModelError("network tree reuses an address")
    if table is None:
        table = build_table(cfg)
    qtable = queue_table()

    def build(t):
        if isinstance(t, Node):
            return node_automaton(t.ip, t.nbrs, table, qtable)
        return SubnetAutomaton(build(t.left), build(t.right))

    return build(tree)


def closed_net(tree: NetTree, cfg: VariantConfig = BASE,
               table=None) -> NetAutomaton:
    return ClosedAutomaton(build_net(tree, cfg, table))


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
    """Each node's data record, keyed by address.

    The result is cached on the state object (monitors ask for it many
    times per state) and must be treated as read-only.
    """
    d = getattr(state, "_ndata", None)
    if d is None:
        d = {ip: proc_state(n).data for ip, n in node_states(state).items()}
        cache_attr(state, "_ndata", d)
    return d


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
