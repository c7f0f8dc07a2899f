"""Seeded random simulation of closed networks.

A :class:`Schedule` pins down the environment completely: at fixed step
indices it forces an injection or a topology change, and between those
the simulator picks uniformly among the network's internal steps using
a seeded generator.  Runs are reproducible: the same scenario and seed
give byte-identical traces.

Every executed step is monitored against the chosen invariant suites;
a violation stops the run and is recorded in the trace.

The generator draws from the sibling steps in one fixed order,
``sibling_order``.  Only steps that tie on their own key are ordered by
their targets, so a state is encoded as a key only where that decides
a draw.

Each run builds its own network automata, but a node's automaton reads
and fills the node states and node steps that its process table keeps
for that node's address (``awn.ProcessTable.node_tables``), as it reads
the table's process steps.  A node's steps do not depend on the run, so
a seed takes the node steps an earlier seed of the configuration built,
and no draw or trace depends on what ran before.

A run keeps only the path it walked.  Its trace records, where each
step names the state it reaches by its ``bdigest``, are built from that
path the first time ``SimResult.records`` is read, so a run whose trace
nobody writes digests no state.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .awn import DeliverAtA, NewpktA, NetMenu, EMPTY_MENU, root_parts
from .canon import EMPTY_MAP, FrozenMap, bdigest, value_key
from .canon import digest  # noqa: F401  (bench/spans.py patches this name)
from .messages import Newpkt
from .monitor import Verdict, state_checks, step_checks
from .network import closed_net, net_data
from .protocol import BASE, VariantConfig, build_table
from .trace import TRACE_FORMAT, render_action, sigma_dict
from .variants import mutations_of


class ScheduleError(Exception):
    """A scheduled event cannot fire in the current state."""


@dataclass(frozen=True)
class Schedule:
    seed: int = 0
    max_steps: int = 200
    events: FrozenMap = EMPTY_MAP  # step index -> environment action


def sibling_order(steps) -> list:
    """``steps`` sorted by ``RichStep.canon_key``, then by target key.

    The result is that of one stable sort by ``(r.canon_key(),
    value_key(r.target))``, but a target is keyed only when its step's
    key ties with another's: the steps are sorted stably by their keys,
    then each run of equal keys by its targets.
    """
    out: list = []
    first = itemgetter(0)
    for _, run in groupby(sorted(((r.canon_key(), r) for r in steps),
                                 key=first), key=first):
        run = [r for _, r in run]
        if len(run) > 1:
            run.sort(key=lambda r: value_key(r.target))
        out += run
    return out


def _event_menu(action) -> NetMenu:
    if isinstance(action, NewpktA):
        pkts = FrozenMap({action.ip: (Newpkt(action.data, action.dip),)})
        return NetMenu(newpkts=pkts)
    return NetMenu(links=(action,))


@dataclass
class SimResult:
    """The outcome of one run and the path it walked.

    ``path`` holds one ``(step index, RichStep)`` per executed step.
    ``records``, the trace, is built from the header, the path, the
    violation and the final state the first time it is read, and kept:
    a run that writes no trace digests no state.
    """
    final_state: object
    header: dict = field(repr=False, default_factory=dict)
    path: list = field(repr=False, default_factory=list)
    violation: Optional[dict] = None  # body of the trace's violation record
    dump_sigma: bool = False
    verdict: Optional[Verdict] = None
    stop: str = ""
    steps: int = 0
    delivered: tuple = ()
    pending_events: tuple = ()

    @property
    def holds(self) -> bool:
        return self.verdict is None

    @cached_property
    def records(self) -> list:
        # A run stops at its first violation, so that record follows
        # the last step's; a run whose initial state fails ends there.
        records = [self.header]
        for i, r in self.path:
            rec = {"step": i, "origin": r.origin,
                   "action": render_action(r.detail),
                   "digest": bdigest(r.target).hex()}
            if self.dump_sigma:
                rec["sigma"] = sigma_dict(net_data(r.target))
            records.append(rec)
        if self.violation is not None:
            records.append({"violation": self.violation})
            if self.violation["step"] < 0:
                return records
        final = {"final": bdigest(self.final_state).hex(), "stop": self.stop,
                 "steps": self.steps,
                 "delivered": [list(d) for d in self.delivered],
                 "holds": self.holds}
        if self.dump_sigma:
            final["sigma"] = sigma_dict(net_data(self.final_state))
        records.append(final)
        return records


def run(nodes, sched: Schedule, cfg: VariantConfig = BASE,
        suites=None, dump_sigma=False, scenario_name=None) -> SimResult:
    """Run ``sched`` on the closed network of ``nodes`` under ``cfg``.

    ``nodes`` is the network's (ip, neighbours) pairs (see
    ``network.build_net``); the trace header lists them in that order.

    Each run builds its own node and subnet automata, with their maps
    of menus, its own subnet memos and intern tables, its own monitor
    checks and its own generator.  What it shares with other runs of
    ``cfg`` in the process is the labelled process table and the queue
    table, which ``build_table`` and ``queue_table`` build once, and
    with them the process states and process steps those tables own,
    and the node states, node steps and cast deliveries the protocol
    table keeps per address: a seed takes a node or process step that
    an earlier seed built from the table's memos instead of building it
    again.  A table holds no run state, so no draw or trace depends on
    what ran before.
    """
    table = build_table(cfg)
    auto = closed_net(nodes, cfg, table)
    (state,) = auto.init
    rng = random.Random(sched.seed)
    schecks = state_checks(table, suites)
    tchecks = step_checks(table, suites)
    events = dict(sched.events)

    header = {"format": TRACE_FORMAT, "kind": "simulate",
              "scenario": scenario_name, "variant": cfg.name,
              "mutations": list(mutations_of(cfg)),
              "seed": sched.seed, "max_steps": sched.max_steps,
              "nodes": [[ip, sorted(nbrs)] for ip, nbrs in nodes],
              "suites": sorted(n for n, _ in schecks)
              + sorted(n for n, _ in tchecks)}
    result = SimResult(final_state=state, header=header,
                       dump_sigma=dump_sigma)
    path = result.path

    def fail(name, kind, w, at):
        result.verdict = Verdict(False, name, tuple(w))
        result.violation = {"suite": name, "kind": kind, "witness": list(w),
                            "step": at}

    def check_state(s, at):
        for name, fn in schecks:
            w = fn(s)
            if w is not None:
                fail(name, "state", w, at)
                return False
        return True

    if not check_state(state, -1):
        result.stop = "violation"
        return result

    i = 0
    executed = 0
    delivered = []
    while executed < sched.max_steps:
        forced = events.pop(i, None)
        if forced is not None:
            choices = [r for r in auto.rich_steps(state, _event_menu(forced))
                       if r.detail == forced]
            if not choices:
                raise ScheduleError(
                    f"event {render_action(forced)} cannot fire at step {i}")
        else:
            choices = auto.rich_steps(state, EMPTY_MENU)
            if not choices:
                if events:
                    i = min(events)  # quiescent: jump to the next event
                    continue
                result.stop = "quiescent"
                break
        choices = sibling_order(choices)
        r = choices[rng.randrange(len(choices))]
        target = r.target
        executed += 1
        path.append((i, r))
        if isinstance(r.detail, DeliverAtA):
            delivered.append((i, r.detail.ip, r.detail.data))

        violated = False
        after = root_parts(target)
        for name, fn in tchecks:
            w = fn(state, r, after)
            if w is not None:
                fail(name, "step", w, i)
                violated = True
                break
        state = target
        if not violated:
            violated = not check_state(state, i)
        if violated:
            result.stop = "violation"
            break
        i += 1
    else:
        result.stop = "max-steps"

    result.final_state = state
    result.steps = executed
    result.delivered = tuple(delivered)
    result.pending_events = tuple(sorted(events.items()))
    return result
