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
trace records.  A state check takes a network state.  A step check is
``check(net, step, after)``: ``net`` is the source network state,
``step`` the ``RichStep`` taken (a check reads only its ``origin`` and
``detail``) and ``after`` the target's root parts, in the shape of
``awn.root_parts``, so that an explorer need not build the target.

The paper proves invariants of a single node and lifts them to a whole
network, where such an invariant holds of every node.  dispatch-msg is
one of these, so it is checked the same way: its verdict is computed
once per node state and composed up the subnet tree, a subnet failing
when either child fails, with the witness of lesser address.
sn-monotone and nsqn-monotone relate one node's data before and after a
step; each is defined once as a check of one node's data pair and lifted
the same way, over the root parts that the step changed (see the step
suites below).  The routing-table suites relate nodes to each other, so they
are not lifted; they are memoized on per-subtree signatures of the
tables.  Subtree results are cached on node and inner subnet states.
Those are interned by the automata of ``aodvcheck.awn``, one object per
distinct subtree value, so each result is computed once per distinct
node or subnet state, however many global states share it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .awn import CastA, ProcessTable, Receive, SubnetS, root_parts, subterms
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
    def check(net):
        sig = (tag, _rt_sig(net))
        w = _rt_verdicts.get(sig, _MISSING)
        if w is _MISSING:
            w = raw(net)
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


def _check_dispatch_msg(net):
    if type(net) is SubnetS:
        return _least(_dispatch_verdict(net.left),
                      _dispatch_verdict(net.right))
    return _dispatch_verdict(net)


# ---------------------------------------------------------------------------
# step suites
#
# A step check is ``check(net, step, after)``, ``after`` being the
# target's root parts (see the module docstring).
#
# sn-monotone and nsqn-monotone are node-data suites: a check of one
# node's data record before and after a step, lifted to the network the
# way dispatch-msg is.  A step's source and target share every subtree
# the step did not touch, and subtrees are interned, so the lifting
# compares the two part by part and recurses only into the parts that
# are not the same object, down to the nodes whose data record was
# replaced.  When several nodes fail, the witness of least address wins.


def _node_data_suite(node_check):
    """The step check holding when ``node_check(ip, before, after)``
    holds of every node data record that a step replaces."""

    def diff(before, after):
        # the least witness below two subtrees that are not one object
        if type(before) is SubnetS:
            w = None
            if before.left is not after.left:
                w = diff(before.left, after.left)
            if before.right is not after.right:
                w = _least(w, diff(before.right, after.right))
            return w
        # proc_state(x).data, inlined: this runs for most transitions
        b, a = before.inner[0].data, after.inner[0].data
        return None if a is b else node_check(before.ip, b, a)

    def check(net, rich, after):
        if type(net) is SubnetS:
            left, right = after
            w = None
            if left is not net.left:
                w = diff(net.left, left)
            if right is not net.right:
                w = _least(w, diff(net.right, right))
            return w
        return None if after[0] is net else diff(net, after[0])

    return check


def _sn_monotone(ip, b, a):
    if a.sn < b.sn:
        return (ip, b.sn, a.sn)
    return None


def _nsqn_monotone(ip, b, a):
    rt0, rt1 = b.rt, a.rt
    if rt1 is rt0:
        return None
    for dip in sorted(known_dests(rt0) & known_dests(rt1)):
        if net_seqno(rt1, dip) < net_seqno(rt0, dip):
            return (ip, dip, net_seqno(rt0, dip), net_seqno(rt1, dip))
    return None


def _check_rerr_grounded(net, rich, after):
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
    "sn-monotone": _node_data_suite(_sn_monotone),
    "nsqn-monotone": _node_data_suite(_nsqn_monotone),
    "rerr-grounded": _check_rerr_grounded,
}

ALL_SUITES = tuple(STATE_SUITES) + tuple(STEP_SUITES)


def split_suites(names=None) -> tuple:
    """Partition requested suite names into (state, step) name tuples.

    ``None`` selects every suite; an empty selection is an error, since
    checking nothing would pass any model, and so is a suite named
    twice, which would run twice.
    """
    if names is None:
        return tuple(STATE_SUITES), tuple(STEP_SUITES)
    if not names:
        raise SuiteError("no suite selected "
                         f"(known: {', '.join(ALL_SUITES)})")
    state, step = [], []
    for name in names:
        if name in state or name in step:
            raise SuiteError(f"suite {name!r} is selected twice")
        if name in STATE_SUITES:
            state.append(name)
        elif name in STEP_SUITES:
            step.append(name)
        else:
            raise SuiteError(f"unknown suite {name!r} "
                             f"(known: {', '.join(ALL_SUITES)})")
    return tuple(state), tuple(step)


def state_checks(table: ProcessTable, names=None):
    """Ordered (name, net -> witness|None) pairs for the given suites.

    A check takes a network state, never an explorer's ``(network,
    environment)`` pair.  No check reads ``table``: a node's state
    carries its own (see ``dispatch_locations``).
    """
    picked = split_suites(names)[0]
    return [(n, STATE_SUITES[n]) for n in picked]


def step_checks(table: ProcessTable, names=None):
    """Ordered (name, (net, step, after) -> witness|None) pairs.

    ``net`` is the source network state and ``after`` the target's root
    parts (see the module docstring).  The checks keep no state, so one
    list may serve any number of runs.
    """
    picked = split_suites(names)[1]
    return [(n, STEP_SUITES[n]) for n in picked]


def check_state_invariants(state, table: ProcessTable, names=None) -> Verdict:
    """First failing state suite, or a passing verdict."""
    for name, fn in state_checks(table, names):
        witness = fn(state)
        if witness is not None:
            return Verdict(False, name, witness)
    return Verdict(True)


def check_step_invariants(step_triple, table: ProcessTable,
                          names=None) -> Verdict:
    """First failing step suite on ``(net, step, target)``, or a passing
    verdict; ``net`` and ``target`` are network states."""
    net, rich, target = step_triple
    after = root_parts(target)
    for name, fn in step_checks(table, names):
        witness = fn(net, rich, after)
        if witness is not None:
            return Verdict(False, name, witness)
    return Verdict(True)
