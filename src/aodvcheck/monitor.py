"""Safety properties evaluated over network states and transitions.

State suites:

  hop-positivity   every route entry records at least one hop
  quality          along a valid route, the next hop's information about
                   the destination is strictly better
  loop-freedom     the per-destination routing graphs are acyclic
  dispatch-msg     at the control location just after the main loop's
                   receive, the msg variable holds a message

Step suites:

  sn-monotone      a node's own sequence number never decreases
  nsqn-monotone    the advertised number for a destination never
                   decreases while the destination stays known
  rerr-grounded    an error message cast to somebody always names at
                   least one unreachable destination

Suite checkers return ``None`` when satisfied and a witness tuple of
plain ints/strings when not, so violations serialize directly into
trace records.  A check takes a network state, or an explorer state
``(network, environment)`` as it is, and looks only at the network.

The paper proves invariants of a single node and lifts them to a whole
network, where such an invariant holds of every node.  dispatch-msg is
one of these, so it is checked the same way: its verdict is computed
once per node state and composed up the subnet tree, a subnet failing
when either child fails, with the witness of lesser address.
sn-monotone and nsqn-monotone relate one node's data before and after a
step; they read one shared list of the nodes whose data the step
changed.  The routing-table suites relate nodes to each other, so they
are not lifted; they are memoized on per-subtree signatures of the
tables.  Subtree results are cached on node and inner subnet states.
Those are interned by the automata of ``aodvcheck.awn``, one object per
distinct subtree value, so each result is computed once per distinct
node or subnet state, however many global states share it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Optional

from .awn import CastA, ProcessTable, Receive, SubnetS, subterms
from .canon import bdigest, cache_attr
from .messages import Rerr
from .network import GlobalView, net_data, proc_state
from .routing import (VALID, known_dests, net_seqno, next_hop,
                      strictly_fresher, valid_dests)


class SuiteError(Exception):
    """An unknown suite name was requested."""


@dataclass(frozen=True)
class Verdict:
    holds: bool
    suite: str = ""
    witness: Optional[tuple] = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("failing verdict needs a witness")


@dataclass(frozen=True)
class RtGraph:
    dip: int
    arcs: frozenset  # (ip, next hop) pairs


def rt_graph(sigma: GlobalView, dip: int, nodes) -> RtGraph:
    """Arcs from each node with a valid route for ``dip`` to its next hop."""
    arcs = set()
    for ip in nodes:
        if ip == dip:
            continue
        entry = sigma[ip].rt.get(dip)
        if entry is not None and entry.flag == VALID:
            arcs.add((ip, entry.nhip))
    return RtGraph(dip, frozenset(arcs))


def find_cycle(graph: RtGraph) -> Optional[tuple]:
    """First directed cycle by ascending start address, or None.

    Each node has at most one outgoing arc (its next hop), so a simple
    pointer chase with done-marking suffices and is deterministic.
    """
    succ = dict(sorted(graph.arcs))
    done: set = set()
    for start in sorted(succ):
        if start in done:
            continue
        path = []
        on_path: dict = {}
        node = start
        while node in succ and node not in done:
            if node in on_path:
                cycle = path[on_path[node]:] + [node]
                return tuple(cycle)
            on_path[node] = len(path)
            path.append(node)
            node = succ[node]
        done.update(path)
    return None


def _all_dests(sigma: GlobalView, nodes) -> tuple:
    dips = set(nodes)
    for ip in nodes:
        dips.update(sigma[ip].rt)
    return tuple(sorted(dips))


def loop_free(sigma: GlobalView, nodes) -> Verdict:
    """Acyclicity of every per-destination routing graph."""
    for dip in _all_dests(sigma, nodes):
        cycle = find_cycle(rt_graph(sigma, dip, nodes))
        if cycle is not None:
            return Verdict(False, "loop-freedom", (dip,) + cycle)
    return Verdict(True, "loop-freedom")


# ---------------------------------------------------------------------------
# state suites

def _net(state):
    """The network part of an explorer state ``(network, environment)``.

    Suites take a network state or an explorer state alike; a network
    state is a node or a subnet, never a tuple.
    """
    return state[0] if type(state) is tuple else state


# Routing-table suites are memoized on a signature of the routing
# tables: (address, table digest) per node, in tree order.  Most
# transitions shuffle queues or scratch variables without touching any
# routing table, so the vast majority of states share their verdict with
# an already-checked sibling.  A signature is the concatenation of its
# subtrees' signatures, each cached on its node or inner subnet state;
# the step memos share those objects among many global states, so a
# root state's signature costs one concatenation, and is not kept.
_MISSING = object()
_MEMO_CAP = 1 << 20
_rt_verdicts: dict = {}


def _sub_sig(x) -> tuple:
    sig = getattr(x, "_rts", None)
    if sig is None:
        if type(x) is SubnetS:
            sig = _sub_sig(x.left) + _sub_sig(x.right)
        else:
            sig = (x.ip, bdigest(proc_state(x).data.rt))
        cache_attr(x, "_rts", sig)
    return sig


def _rt_sig(state) -> tuple:
    if type(state) is SubnetS:
        return _sub_sig(state.left) + _sub_sig(state.right)
    return _sub_sig(state)


def _rt_cached(tag: str, raw):
    def check(table, state):
        state = _net(state)
        sig = (tag, _rt_sig(state))
        w = _rt_verdicts.get(sig, _MISSING)
        if w is _MISSING:
            w = raw(state)
            if len(_rt_verdicts) < _MEMO_CAP:
                _rt_verdicts[sig] = w
        return w

    check.__name__ = raw.__name__
    return check


def _check_hop_positivity(state):
    for ip, d in sorted(net_data(state).items()):
        for dip in sorted(d.rt):
            if d.rt[dip].hops < 1:
                return (ip, dip, d.rt[dip].hops)
    return None


def _check_quality(state):
    sigma = GlobalView(net_data(state))
    for ip in sigma.addresses():
        rt = sigma[ip].rt
        for dip in sorted(valid_dests(rt)):
            nhip = next_hop(rt, dip)
            if nhip == dip:
                continue
            nrt = sigma[nhip].rt
            if dip not in valid_dests(nrt):
                continue
            if not strictly_fresher(rt, nrt, dip):
                return (ip, dip, nhip,
                        net_seqno(rt, dip), net_seqno(nrt, dip),
                        rt[dip].hops, nrt[dip].hops)
    return None


def _check_loop_freedom(state):
    sigma = GlobalView(net_data(state))
    verdict = loop_free(sigma, sigma.addresses())
    return None if verdict.holds else verdict.witness


def dispatch_locations(table: ProcessTable) -> frozenset:
    """Control locations right after the main loop has taken a message."""
    cached = getattr(table, "_dispatch_locs", None)
    if cached is not None:
        return cached
    for t in subterms(table["aodv"]):
        if isinstance(t, Receive):
            table._dispatch_locs = table.labels(t.cont)
            return table._dispatch_locs
    raise SuiteError("main loop has no receive branch")


# dispatch-msg is lifted from nodes to subnets (see the module
# docstring).  A node's verdict is a function of its state alone, since
# its process state carries its table, so verdicts are cached on node
# and inner subnet states; a root state's is not kept, as the search
# meets each root state once.


def _least(a, b):
    """The witness of lesser address, or the one that is not None."""
    if a is None:
        return b
    if b is None or a[0] < b[0]:
        return a
    return b


def _dispatch_verdict(x):
    w = getattr(x, "_dsp", _MISSING)
    if w is _MISSING:
        if type(x) is SubnetS:
            w = _least(_dispatch_verdict(x.left), _dispatch_verdict(x.right))
        else:
            proc = proc_state(x)
            table = proc.table
            here = table.labels(proc.term) & dispatch_locations(table)
            w = None
            if here and proc.data.msg is None:
                w = (x.ip, min(str(l) for l in here))
        cache_attr(x, "_dsp", w)
    return w


def _check_dispatch_msg(table, state):
    state = _net(state)
    if type(state) is SubnetS:
        return _least(_dispatch_verdict(state.left),
                      _dispatch_verdict(state.right))
    return _dispatch_verdict(state)


# ---------------------------------------------------------------------------
# step suites; each sees (change list, state, rich_step, successor state)


def _changed_data(state, target, out):
    """(ip, before, after) for nodes whose data record was replaced.

    Walks both trees in lockstep and prunes shared subtrees, so the
    cost is the length of the changed spine, not the network size.
    """
    if state is target:
        return
    if type(state) is SubnetS:
        _changed_data(state.left, target.left, out)
        _changed_data(state.right, target.right, out)
        return
    b, a = proc_state(state).data, proc_state(target).data
    if a is not b:
        out.append((state.ip, b, a))


def _change_list():
    """A run's change list: (ip, before, after) data records, by address.

    The node-data suites share the list of one transition: it is made by
    the first of them to ask and kept, with the step it was made for,
    until another step is checked.  Holding the step and its source
    keeps them alive, so their identities cannot be reused meanwhile.
    """
    last = [None, None, None]   # source state, step, its change list

    def changed(state, rich, target) -> list:
        if last[1] is rich and last[0] is state:
            return last[2]
        out = []
        _changed_data(_net(state), _net(target), out)
        out.sort(key=itemgetter(0))
        last[:] = state, rich, out
        return out

    return changed


def _check_sn_monotone(changed, state, rich, target):
    for ip, b, a in changed(state, rich, target):
        if a.sn < b.sn:
            return (ip, b.sn, a.sn)
    return None


def _check_nsqn_monotone(changed, state, rich, target):
    for ip, b, a in changed(state, rich, target):
        rt0, rt1 = b.rt, a.rt
        if rt1 is rt0:
            continue
        for dip in sorted(known_dests(rt0) & known_dests(rt1)):
            if net_seqno(rt1, dip) < net_seqno(rt0, dip):
                return (ip, dip, net_seqno(rt0, dip), net_seqno(rt1, dip))
    return None


def _check_rerr_grounded(changed, state, rich, target):
    a = rich.detail
    if isinstance(a, CastA) and isinstance(a.msg, Rerr):
        if a.dests and not a.msg.dests:
            return (rich.origin, tuple(sorted(a.dests)))
    return None


STATE_SUITES = {
    "hop-positivity": _rt_cached("hop", _check_hop_positivity),
    "quality": _rt_cached("qual", _check_quality),
    "loop-freedom": _rt_cached("loop", _check_loop_freedom),
    "dispatch-msg": _check_dispatch_msg,
}

STEP_SUITES = {
    "sn-monotone": _check_sn_monotone,
    "nsqn-monotone": _check_nsqn_monotone,
    "rerr-grounded": _check_rerr_grounded,
}

ALL_SUITES = tuple(STATE_SUITES) + tuple(STEP_SUITES)


def split_suites(names=None) -> tuple:
    """Partition requested suite names into (state, step) name tuples.

    ``None`` selects every suite; an empty selection is an error, since
    checking nothing would pass any model.
    """
    if names is None:
        return tuple(STATE_SUITES), tuple(STEP_SUITES)
    if not names:
        raise SuiteError("no suite selected "
                         f"(known: {', '.join(ALL_SUITES)})")
    state, step = [], []
    for name in names:
        if name in STATE_SUITES:
            state.append(name)
        elif name in STEP_SUITES:
            step.append(name)
        else:
            raise SuiteError(f"unknown suite {name!r} "
                             f"(known: {', '.join(ALL_SUITES)})")
    return tuple(state), tuple(step)


def state_checks(table: ProcessTable, names=None):
    """Ordered (name, state -> witness|None) pairs for the given suites.

    A check takes a network state or an explorer state ``(network,
    environment)``.
    """
    picked = split_suites(names)[0]
    return [(n, partial(STATE_SUITES[n], table)) for n in picked]


def step_checks(table: ProcessTable, names=None):
    """Ordered (name, (state, step, target) -> witness|None) pairs.

    The checks of one call share one change list (see ``_change_list``),
    so each call's checks belong to one run.
    """
    picked = split_suites(names)[1]
    changed = _change_list()
    return [(n, partial(STEP_SUITES[n], changed)) for n in picked]


def check_state_invariants(state, table: ProcessTable, names=None) -> Verdict:
    """First failing state suite, or a passing verdict."""
    for name, fn in state_checks(table, names):
        witness = fn(state)
        if witness is not None:
            return Verdict(False, name, witness)
    return Verdict(True)


def check_step_invariants(step_triple, table: ProcessTable,
                          names=None) -> Verdict:
    state, rich, target = step_triple
    for name, fn in step_checks(table, names):
        witness = fn(state, rich, target)
        if witness is not None:
            return Verdict(False, name, witness)
    return Verdict(True)
