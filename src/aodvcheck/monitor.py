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
network.  The monitor caches every verdict by one rule, which does the
lifting's work: a verdict depends only on what the suites read of the
nodes, so it is computed once per distinct value of that and looked up
by its signature number.  Each interned part below the root carries its
number, cached as ``_sig``:

  node             numbers its address, its own sequence number, the
                   digest of its routing table and its dispatch-msg
                   witness
  inner subnet     numbers the pair of its children's numbers

This is all that any suite reads of a node, so two parts with one
number pass and fail every suite alike.  A suite that reads another
field of a node must add that field to the node's signature
(``_sig_number``), or it would read another state's verdict.  The
verdicts are kept in two tables, beside the numbers in ``_rt_numbers``:

  state suites     one tuple of the four witnesses per root signature,
                   in ``_rt_verdicts``, keyed by the root parts' numbers
  sn-monotone,     one tuple of the two witnesses per changed pair of a
  nsqn-monotone    root part's numbers, in ``_nd_verdicts``; a pair of
                   equal numbers holds at once

rerr-grounded reads only the step's detail, and is tested inline.  The
states of nodes and inner subnets are interned by the automata of
``aodvcheck.awn``, each carrying its number ``_n``, so a signature is
numbered once per interned state however many global states share it.
Node states outlive a run in their process table, carrying their
signature numbers, so the three tables are module-level.  Each stops
growing at ``awn._MEMO_CAP``.  A part that carries no number, such as an
oracle's state or a test's forged one, or whose signature found no room
in ``_rt_numbers``, is checked directly and nothing is cached for it.

Each suite keeps a check of its own (``state_checks``, ``step_checks``),
and selecting one suite alone selects one slot of the shared verdicts.
A caller checks its selection with ``combined_checks``, which turns the
(name, check) pairs into one state check and one step check, each
returning the failing suites' (name, witness) pairs in the order of the
pairs, or None.  Over the monitor's own checks, a combined check reads
each shared verdict once for every suite selected: per new state one
tuple from ``_rt_verdicts``, per transition one node-data lookup per
changed root part and an inline test of the step's detail for
rerr-grounded.  Over any other check, such as a traced or wrapped one,
it calls each pair's check in turn.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .awn import (_MEMO_CAP, CastA, ProcessTable, Receive, SubnetS, root_parts,
                  subterms)
from .canon import bdigest, cache_attr, quote
from .messages import Rerr
from .network import GlobalView, net_data, node_states, proc_state
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
# signatures
#
# A signature is numbered by value in ``_rt_numbers`` (see the module
# docstring), and its number is cached on its interned part as ``_sig``,
# so a verdict's key is read off the parts.  Node and inner subnet
# signatures differ in length, so the two never share a number.
_rt_numbers: dict = {}   # signature -> its number
_rt_verdicts: dict = {}  # root key -> witnesses, in ``_STATE_CHECKS`` order
_nd_verdicts: dict = {}  # (before, after) numbers -> ``_diff`` witnesses


def _sig_number(x):
    """The signature number of interned part ``x``, or None when ``x``
    is not interned or its signature has no number."""
    n = getattr(x, "_sig", None)
    if n is not None or getattr(x, "_n", None) is None:
        return n
    if type(x) is SubnetS:
        sig = (_sig_number(x.left), _sig_number(x.right))
        if None in sig:
            return None
    else:
        data = proc_state(x).data
        sig = (x.ip, data.sn, bdigest(data.rt), _dispatch_witness(x))
    n = _rt_numbers.get(sig)
    if n is None:
        if len(_rt_numbers) >= _MEMO_CAP:
            return None
        n = _rt_numbers[sig] = len(_rt_numbers)
    cache_attr(x, "_sig", n)
    return n


# ---------------------------------------------------------------------------
# state suites
#
# The four suites share one witness tuple per root signature, computed
# by their raw checks on its first lookup.  Most transitions shuffle
# queues or scratch variables and leave every signature as it was, so
# the vast majority of states share their tuple with an already-checked
# one.


def _rt_witnesses(net) -> tuple:
    """Every state suite's witness for ``net``, in ``_STATE_CHECKS``
    order: ``_STATE_HOLDS`` itself when every suite holds.  A key with
    no number in it is None, which is never stored, so it always misses.
    """
    if type(net) is SubnetS:
        key = (_sig_number(net.left), _sig_number(net.right))
        if None in key:
            key = None
    else:
        key = _sig_number(net)
    w = _rt_verdicts.get(key)
    if w is None:
        w = tuple(raw(net) for raw in _STATE_CHECKS)
        if w == _STATE_HOLDS:
            w = _STATE_HOLDS
        if key is not None and len(_rt_verdicts) < _MEMO_CAP:
            _rt_verdicts[key] = w
    return w


def _state_suite(slot: int):
    """The state check reading slot ``slot`` of ``_rt_witnesses``."""
    def check(net):
        return _rt_witnesses(net)[slot]

    check.__name__ = _STATE_CHECKS[slot].__name__
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


def _dispatch_witness(node):
    """dispatch-msg's witness at one node, or None.  It is a function of
    the node's state alone, since its process state carries its table."""
    proc = proc_state(node)
    table = proc.table
    here = table.labels(proc.term) & dispatch_locations(table)
    if here and proc.data.msg is None:
        return (node.ip, min(str(l) for l in here))
    return None


def _check_dispatch_msg(state):
    for _, node in sorted(node_states(state).items()):
        w = _dispatch_witness(node)
        if w is not None:
            return w
    return None


_STATE_CHECKS = (_check_hop_positivity, _check_quality, _check_loop_freedom,
                 _check_dispatch_msg)
_STATE_HOLDS = (None,) * len(_STATE_CHECKS)


# ---------------------------------------------------------------------------
# step suites
#
# A step check is ``check(net, step, after)``, ``after`` being the
# target's root parts (see the module docstring).
#
# sn-monotone and nsqn-monotone are node-data suites: a check of one
# node's data record before and after a step, lifted to the network.  A
# step's source and target share every subtree the step did not touch,
# and subtrees are interned, so ``_diff`` compares the two part by part
# and recurses only into the parts that are not the same object, down to
# the nodes whose data record was replaced.  When several nodes fail,
# the witness of least address wins.  One lookup serves both suites:
# ``_lifted`` gives each suite's least witness over the root parts that
# the step changed, sn-monotone's then nsqn-monotone's, and each suite
# reads its own slot.  A changed pair of root parts with one signature
# number holds at once, and any other pair reads its tuple in
# ``_nd_verdicts``, keyed by the two numbers.


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


def _least(a, b):
    """The witness of lesser address, or the one that is not None."""
    if a is None:
        return b
    if b is None or a[0] < b[0]:
        return a
    return b


def _merge(w, v) -> tuple:
    """The least witness of each suite between two witness tuples."""
    if w is _HOLDS:
        return v
    if v is _HOLDS:
        return w
    return tuple(map(_least, w, v))


def _diff(before, after) -> tuple:
    """Each node-data suite's least witness below two subtrees that are
    not one object."""
    if type(before) is SubnetS:
        w = _HOLDS
        if before.left is not after.left:
            w = _diff(before.left, after.left)
        if before.right is not after.right:
            w = _merge(w, _diff(before.right, after.right))
        return w
    # proc_state(x).data, inlined: this runs on every lookup miss
    b, a = before.inner[0].data, after.inner[0].data
    if a is b:
        return _HOLDS
    sn = _sn_monotone(before.ip, b, a)
    nsqn = _nsqn_monotone(before.ip, b, a)
    return _HOLDS if sn is None and nsqn is None else (sn, nsqn)


def _changed(before, after) -> tuple:
    """``_diff`` of a changed pair of root parts, by their signature
    numbers."""
    b, a = _sig_number(before), _sig_number(after)
    if b is None or a is None:
        return _diff(before, after)
    if b == a:
        return _HOLDS
    w = _nd_verdicts.get((b, a))
    if w is None:
        w = _diff(before, after)
        if len(_nd_verdicts) < _MEMO_CAP:
            _nd_verdicts[b, a] = w
    return w


def _lifted(net, after) -> tuple:
    """Each node-data suite's least witness over the root parts that a
    step from ``net`` to ``after`` changed: ``_HOLDS`` itself when both
    suites hold."""
    if type(net) is SubnetS:
        left, right = after
        if left is net.left:
            if right is net.right:
                return _HOLDS
            return _changed(net.right, right)
        w = _changed(net.left, left)
        if right is net.right:
            return w
        return _merge(w, _changed(net.right, right))
    return _HOLDS if after[0] is net else _changed(net, after[0])


def _node_data_suite(slot: int):
    """The step check reading slot ``slot`` of ``_lifted``."""

    def check(net, rich, after):
        return _lifted(net, after)[slot]

    return check


def _check_rerr_grounded(net, rich, after):
    a = rich.detail
    if isinstance(a, CastA) and isinstance(a.msg, Rerr):
        if a.dests and not a.msg.dests:
            return (rich.origin, tuple(sorted(a.dests)))
    return None


STATE_SUITES = {
    "hop-positivity": _state_suite(0),
    "quality": _state_suite(1),
    "loop-freedom": _state_suite(2),
    "dispatch-msg": _state_suite(3),
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
    lookup per changed root part, keyed by signatures, which stand for
    values, so one list may serve any number of runs.
    """
    picked = split_suites(names)[1]
    return [(n, STEP_SUITES[n]) for n in picked]


# The monitor's own checks, each with its slot in the verdicts that a
# combined check reads: a state suite's in ``_rt_witnesses(net)``, a
# step suite's in ``_lifted(net, after)`` followed by rerr-grounded's.
# They are keyed by the function, not the name, so that a check put in
# a suite's place, as a test may put one, is called and not read
# around; a suite with no slot here is called the same way.
_STATE_SLOTS = {fn: i for i, fn in enumerate(STATE_SUITES.values())}
_STEP_SLOTS = {fn: i for i, fn in enumerate(STEP_SUITES.values())}
_RERR = len(_HOLDS)      # rerr-grounded's slot


def combined_checks(state_suites=(), step_suites=()) -> tuple:
    """One state check and one step check for (name, check) pairs.

    The state check is called as ``check(net)`` and the step check as
    ``check(net, step, after)``, as each pair's check is.  Each returns
    the failing suites' ``(name, witness)`` pairs, in the order of the
    pairs, or None when every suite holds.

    When every check is the monitor's own (from ``state_checks`` or
    ``step_checks``), a combined check reads each shared verdict once
    for all the suites: the state check one witness tuple, the step
    check one node-data lookup per changed root part, testing the step's
    detail for rerr-grounded inline.  Otherwise, as for a traced,
    wrapped or caller-written check, it calls every pair's check in
    turn.
    """
    return (_combined(state_suites, _STATE_SLOTS, _state_reader),
            _combined(step_suites, _STEP_SLOTS, _step_reader))


def _combined(pairs, slots, reader):
    pairs = tuple(pairs)
    plan = tuple((name, slots.get(fn)) for name, fn in pairs)
    if all(slot is not None for _, slot in plan):
        return reader(plan)

    def check(*args):
        failed = None
        for name, fn in pairs:
            w = fn(*args)
            if w is not None:
                if failed is None:
                    failed = []
                failed.append((name, w))
        return failed

    return check


def _state_reader(plan):
    """The combined state check of the monitor's own suites in ``plan``,
    (name, slot) pairs; with none selected, it reads nothing."""
    if not plan:
        return lambda net: None

    def check(net):
        w = _rt_witnesses(net)
        if w is _STATE_HOLDS:
            return None
        return [(name, w[i]) for name, i in plan if w[i] is not None] or None

    return check


def _step_reader(plan):
    """The combined step check of the monitor's own suites in ``plan``,
    (name, slot) pairs."""
    slots = {slot for _, slot in plan}
    nd = not slots.isdisjoint(range(_RERR))
    rerr = _RERR in slots

    def check(net, rich, after):
        w = _lifted(net, after) if nd else _HOLDS
        r = None
        if rerr and isinstance(rich.detail, CastA):
            r = _check_rerr_grounded(net, rich, after)
        if w is _HOLDS and r is None:
            return None
        w += (r,)
        return [(name, w[i]) for name, i in plan if w[i] is not None] or None

    return check


def _first(failed) -> Verdict:
    """The verdict of the first of a combined check's failing suites."""
    if failed is None:
        return Verdict(True)
    name, witness = failed[0]
    return Verdict(False, name, witness)


def check_state_invariants(state, table: ProcessTable, names=None) -> Verdict:
    """First failing state suite, or a passing verdict."""
    check, _ = combined_checks(state_checks(table, names))
    return _first(check(state))


def check_step_invariants(step_triple, table: ProcessTable,
                          names=None) -> Verdict:
    """First failing step suite on ``(net, step, target)``, or a passing
    verdict; ``net`` and ``target`` are network states."""
    net, rich, target = step_triple
    _, check = combined_checks(step_suites=step_checks(table, names))
    return _first(check(net, rich, root_parts(target)))
