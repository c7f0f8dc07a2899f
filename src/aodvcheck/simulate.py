"""Seeded random simulation of closed networks.

A :class:`Schedule` pins down the environment completely: at fixed step
indices it forces an injection or a topology change, and between those
the simulator picks uniformly among the network's internal steps using
a seeded generator.  Runs are reproducible: the same scenario and seed
give byte-identical traces.

Every executed step is monitored against the chosen invariant suites;
a violation stops the run and is recorded in the trace.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .awn import (ConnectA, DeliverAtA, DisconnectA, NewpktA, NetMenu,
                  EMPTY_MENU, root_parts)
from .canon import EMPTY_MAP, FrozenMap, digest, value_key
from .messages import Newpkt
from .monitor import Verdict, state_checks, step_checks
from .network import NetTree, closed_net, net_data, tree_nodes
from .protocol import BASE, VariantConfig, build_table
from .trace import TRACE_FORMAT, render_action, sigma_dict


class ScheduleError(Exception):
    """A scheduled event cannot fire in the current state."""


@dataclass(frozen=True)
class Schedule:
    seed: int = 0
    max_steps: int = 200
    events: FrozenMap = EMPTY_MAP  # step index -> environment action


def schedule(seed=0, max_steps=200, events=None) -> Schedule:
    """Build a schedule; event specs may be tuples or action objects."""
    table = {}
    for idx, spec in (events or {}).items():
        table[int(idx)] = _parse_event(spec)
    return Schedule(seed, max_steps, FrozenMap(table))


def _parse_event(spec):
    if isinstance(spec, (NewpktA, ConnectA, DisconnectA)):
        return spec
    op = spec[0]
    if op == "newpkt":
        _, ip, data, dip = spec
        return NewpktA(ip, data, dip)
    if op in ("connect", "disconnect"):
        _, a, b = spec
        return ConnectA(a, b) if op == "connect" else DisconnectA(a, b)
    raise ScheduleError(f"unknown event kind {op!r}")


def _event_menu(action) -> NetMenu:
    if isinstance(action, NewpktA):
        pkts = FrozenMap({action.ip: (Newpkt(action.data, action.dip),)})
        return NetMenu((), pkts, ())
    return NetMenu((), EMPTY_MAP, (action,))


@dataclass
class SimResult:
    final_state: object
    records: list = field(repr=False, default_factory=list)
    verdict: Optional[Verdict] = None
    stop: str = ""
    steps: int = 0
    delivered: tuple = ()
    pending_events: tuple = ()

    @property
    def holds(self) -> bool:
        return self.verdict is None


def run(tree: NetTree, sched: Schedule, cfg: VariantConfig = BASE,
        suites=None, dump_sigma=False, table=None,
        scenario_name=None) -> SimResult:
    if table is None:
        table = build_table(cfg)
    auto = closed_net(tree, cfg, table)
    (state,) = auto.init
    rng = random.Random(sched.seed)
    schecks = state_checks(table, suites)
    tchecks = step_checks(table, suites)
    events = dict(sched.events)

    nodes = [[ip, sorted(nbrs)] for ip, nbrs in tree_nodes(tree)]
    records = [{"format": TRACE_FORMAT, "kind": "simulate",
                "scenario": scenario_name, "variant": cfg.name,
                "seed": sched.seed, "max_steps": sched.max_steps,
                "nodes": nodes, "suites": sorted(n for n, _ in schecks)
                + sorted(n for n, _ in tchecks)}]
    result = SimResult(final_state=state, records=records)

    def check_state(s, at):
        for name, fn in schecks:
            w = fn(s)
            if w is not None:
                result.verdict = Verdict(False, name, tuple(w))
                records.append({"violation": {"suite": name, "kind": "state",
                                              "witness": list(w), "step": at}})
                return False
        return True

    if not check_state(state, -1):
        result.final_state = state
        result.stop = "violation"
        return result

    i = 0
    executed = 0
    delivered = []
    while executed < sched.max_steps:
        forced = events.pop(i, None)
        if forced is not None:
            choices = [r for r in auto.rich_steps(state, _event_menu(forced))
                       if r.action == forced]
            if not choices:
                raise ScheduleError(
                    f"event {render_action(forced)} cannot fire at step {i}")
        else:
            choices = list(auto.rich_steps(state, EMPTY_MENU))
            if not choices:
                if events:
                    i = min(events)  # quiescent: jump to the next event
                    continue
                result.stop = "quiescent"
                break
        choices.sort(key=lambda r: r.canon_key())
        r = choices[rng.randrange(len(choices))]
        target = r.target
        executed += 1

        rec = {"step": i, "origin": r.origin,
               "action": render_action(r.detail),
               "digest": digest(value_key(target))}
        if dump_sigma:
            rec["sigma"] = sigma_dict(net_data(target))
        records.append(rec)
        if isinstance(r.action, DeliverAtA):
            delivered.append((i, r.action.ip, r.action.data))

        violated = False
        after = root_parts(target)
        for name, fn in tchecks:
            w = fn(state, r, after)
            if w is not None:
                result.verdict = Verdict(False, name, tuple(w))
                records.append({"violation": {"suite": name, "kind": "step",
                                              "witness": list(w), "step": i}})
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
    records.append({"final": digest(value_key(state)), "stop": result.stop,
                    "steps": executed,
                    "delivered": [list(d) for d in delivered],
                    "holds": result.holds})
    if dump_sigma:
        records[-1]["sigma"] = sigma_dict(net_data(state))
    return result
