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
step; each is defined once as a check of one node's data pair, and one
lifting computes both over the root parts that the step changed (see
the step suites below).  The routing-table suites relate nodes to each
other, so they are not lifted; the three share one verdict tuple per
signature of the tables (see the state suites below).

Each check is thus a lookup of verdicts computed once per distinct
value, and the verdicts are cached where that value lives:

  dispatch-msg     on each node and inner subnet state, as ``_dsp``
  routing tables   one tuple per signature in ``_rt_verdicts``, keyed
                   by the numbers of the root parts' signatures, which
                   are cached on the parts as ``_rts``
  node data        one tuple per changed pair of root parts, in a memo
                   on the source part, ``_ndw``, keyed by the target
                   part's number

The states of nodes and inner subnets are interned by the automata of
``aodvcheck.awn``, one object per distinct subtree value, each carrying
its number ``_n``, so a verdict cached on such a state is computed once
however many global states share it, and lives as long as the run's
automata do.  A part that carries no number, such as an oracle's state
or a test's forged one, is checked directly and nothing is cached on
it.  Each suite keeps one check all the same, so a caller calls it once
per transition or new state, and selecting one suite alone selects one
slot of the shared verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .awn import (_MEMO_CAP, CastA, ProcessTable, Receive, SubnetS, root_parts,
                  subterms)
from .canon import bdigest, cache_attr, quote
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
#
# Verdicts are cached only on parts that carry a number, ``_n`` (see the
# module docstring).
_MISSING = object()

# The routing-table suites read nothing but the nodes' addresses and
# tables, and most transitions shuffle queues or scratch variables
# without touching a routing table, so the vast majority of states share
# their verdict with an already-checked one.  The three suites share one
# verdict tuple per signature of the tables, computed on its first
# lookup and kept in ``_rt_verdicts``.  A signature is numbered by value
# in ``_rt_numbers``: a node's by its address and table digest, an inner
# subnet's by the pair of its children's numbers.  Each number is cached
# on its interned part as ``_rts``, so a root state's key is its parts'
# numbers, read off the parts.  Both tables stop growing at
# ``awn._MEMO_CAP``; past it, a state whose signature has no number is
# checked directly.
_rt_numbers: dict = {}   # signature -> its number
_rt_verdicts: dict = {}  # root key -> witnesses, in ``_RT_CHECKS`` order


def _rt_number(x):
    """The signature number of interned part ``x``, or None when ``x``
    is not interned or its signature has no number."""
    n = getattr(x, "_rts", None)
    if n is not None or getattr(x, "_n", None) is None:
        return n
    if type(x) is SubnetS:
        sig = (_rt_number(x.left), _rt_number(x.right))
        if None in sig:
            return None
    else:
        sig = (x.ip, bdigest(proc_state(x).data.rt))
    n = _rt_numbers.get(sig)
    if n is None:
        if len(_rt_numbers) >= _MEMO_CAP:
            return None
        n = _rt_numbers[sig] = len(_rt_numbers)
    cache_attr(x, "_rts", n)
    return n


def _rt_witnesses(net) -> tuple:
    """Every routing-table suite's witness for ``net``, in order."""
    if type(net) is SubnetS:
        key = (_rt_number(net.left), _rt_number(net.right))
        if None in key:
            key = None
    else:
        key = _rt_number(net)
    w = None if key is None else _rt_verdicts.get(key)
    if w is None:
        w = tuple(raw(net) for raw in _RT_CHECKS)
        if key is not None and len(_rt_verdicts) < _MEMO_CAP:
            _rt_verdicts[key] = w
    return w


def _rt_suite(slot: int):
    """The state check reading slot ``slot`` of ``_rt_witnesses``.

    It looks the verdicts up by the numbers already on the parts, and
    leaves any other case to ``_rt_witnesses``; a key with no number in
    it is never stored, so it always misses.
    """
    def check(net):
        if type(net) is SubnetS:
            key = (getattr(net.left, "_rts", None),
                   getattr(net.right, "_rts", None))
        else:
            key = getattr(net, "_rts", None)
        w = _rt_verdicts.get(key)
        if w is None:
            w = _rt_witnesses(net)
        return w[slot]

    check.__name__ = _RT_CHECKS[slot].__name__
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


_RT_CHECKS = (_check_hop_positivity, _check_quality, _check_loop_freedom)


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
# its process state carries its table, so verdicts are cached on
# interned node and inner subnet states, as ``_dsp``; a root state's is
# not kept, as the search meets each root state once.


def _least(a, b):
    """The witness of lesser address, or the one that is not None."""
    if a is None:
        return b
    if b is None or a[0] < b[0]:
        return a
    return b


def _check_dispatch_msg(net):
    if type(net) is SubnetS:
        left = getattr(net.left, "_dsp", _MISSING)
        if left is _MISSING:
            left = _check_dispatch_msg(net.left)
        right = getattr(net.right, "_dsp", _MISSING)
        if right is _MISSING:
            right = _check_dispatch_msg(net.right)
        w = _least(left, right)
    else:
        proc = proc_state(net)
        table = proc.table
        here = table.labels(proc.term) & dispatch_locations(table)
        w = None
        if here and proc.data.msg is None:
            w = (net.ip, min(str(l) for l in here))
    if getattr(net, "_n", None) is not None:
        cache_attr(net, "_dsp", w)
    return w


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
#
# One lifting serves every node-data suite: ``_changed`` gives each
# suite's least witness below a changed pair of root parts, sn-monotone's
# then nsqn-monotone's, and each suite reads its own slot.  The
# tuple is memoized on the source part, as ``_ndw``, keyed by the target
# part's number.  Both parts are states of one child automaton of the
# root, whose number stands for the value, so a memo is exact and
# belongs to the run whose automata built its part.


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


_HOLDS = (None, None)


def _diff(before, after) -> tuple:
    """Each node-data suite's least witness below two subtrees that are
    not one object."""
    if type(before) is SubnetS:
        w = _HOLDS
        if before.left is not after.left:
            w = _diff(before.left, after.left)
        if before.right is not after.right:
            v = _diff(before.right, after.right)
            if w is _HOLDS:
                w = v
            elif v is not _HOLDS:
                w = tuple(map(_least, w, v))
        return w
    # proc_state(x).data, inlined: this runs on every memo miss
    b, a = before.inner[0].data, after.inner[0].data
    if a is b:
        return _HOLDS
    sn = _sn_monotone(before.ip, b, a)
    nsqn = _nsqn_monotone(before.ip, b, a)
    return _HOLDS if sn is None and nsqn is None else (sn, nsqn)


def _changed(before, after) -> tuple:
    """``_diff`` of a changed pair of root parts, memoized on ``before``."""
    n = getattr(after, "_n", None)
    memo = getattr(before, "_ndw", None)
    if memo is None:
        w = _diff(before, after)
        if n is not None and getattr(before, "_n", None) is not None:
            cache_attr(before, "_ndw", {n: w})
        return w
    w = memo.get(n)
    if w is None:
        w = _diff(before, after)
        if n is not None:
            memo[n] = w
    return w


def _node_data_suite(slot: int):
    """The step check reading slot ``slot`` of ``_changed`` over the
    root parts that a step changed."""

    def check(net, rich, after):
        if type(net) is SubnetS:
            left, right = after
            if left is net.left:
                if right is net.right:
                    return None
                return _changed(net.right, right)[slot]
            w = _changed(net.left, left)[slot]
            if right is net.right:
                return w
            return _least(w, _changed(net.right, right)[slot])
        return None if after[0] is net else _changed(net, after[0])[slot]

    return check


def _check_rerr_grounded(net, rich, after):
    a = rich.detail
    if isinstance(a, CastA) and isinstance(a.msg, Rerr):
        if a.dests and not a.msg.dests:
            return (rich.origin, tuple(sorted(a.dests)))
    return None


STATE_SUITES = {
    "hop-positivity": _rt_suite(0),
    "quality": _rt_suite(1),
    "loop-freedom": _rt_suite(2),
    "dispatch-msg": _check_dispatch_msg,
}

STEP_SUITES = {
    "sn-monotone": _node_data_suite(0),
    "nsqn-monotone": _node_data_suite(1),
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
            raise SuiteError(f"suite {quote(name)} is selected twice")
        if name in STATE_SUITES:
            state.append(name)
        elif name in STEP_SUITES:
            step.append(name)
        else:
            raise SuiteError(f"unknown suite {quote(name)} "
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
    parts (see the module docstring).  The node-data checks share one
    lifting, memoized on the interned parts of each run's states and
    keyed by that run's numbers, so one list may serve any number of
    runs.
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
