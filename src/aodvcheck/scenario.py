"""Scenario files: one JSON document describing a whole experiment.

A scenario names the nodes and links, picks a protocol variant and
optional mutations, finitizes the environment for exploration, and may
carry a schedule for simulation.  Both the explorer and the simulator
read the same format, so an exploration counterexample and a simulation
trace always refer to the same network.

Undirected links are the norm: if a node lists a neighbour that does
not list it back, the topology is symmetrized with a warning rather
than rejected.
"""
from __future__ import annotations

import json
import reprlib
import warnings
from dataclasses import dataclass
from typing import Optional

from .awn import ConnectA, DisconnectA, NewpktA
from .canon import FrozenMap
from .explore import EnvMenu, env_menu
from .monitor import SuiteError, split_suites
from .network import NetTree, tree_of
from .protocol import VariantConfig
from .simulate import Schedule
from .variants import VariantError, apply_mutations, get_variant

MAX_BUDGET = 1000

# Error messages quote the offending value through ``_quote``, which
# elides what lies deep or far into it, so that a huge or deeply nested
# value still gives a short one-line error.
_REPR = reprlib.Repr()
_REPR.maxlevel = 2
_REPR.maxlist = _REPR.maxtuple = _REPR.maxdict = _REPR.maxset = 4
_REPR.maxstring = _REPR.maxother = 24
_QUOTE_MAX = 60


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    tree: NetTree
    cfg: VariantConfig
    env: EnvMenu
    sched: Optional[Schedule]
    suites: Optional[tuple]
    bound: Optional[int]


def load_scenario(path: str) -> Scenario:
    """The scenario of a UTF-8 JSON file, named after the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from None
    # a decoding error is a ValueError, and so is invalid JSON; a
    # document nested too deeply to parse is a RecursionError
    except (ValueError, RecursionError) as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from None
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".json"):
        name = name[:-5]
    return parse_scenario(obj, name)


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _quote(x) -> str:
    """``repr(x)``, cut to at most ``_QUOTE_MAX`` characters."""
    text = _REPR.repr(x)
    if len(text) > _QUOTE_MAX:
        text = text[:_QUOTE_MAX - 3] + "..."
    return text


def _is_int(x) -> bool:
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


def _address(x, ips, what):
    # JSON lists are unhashable, so test the type before any set lookup
    _require(_is_int(x) and x in ips, f"{what} names unknown node {_quote(x)}")


def _names(x, what) -> list:
    _require(isinstance(x, list) and all(isinstance(n, str) for n in x),
             f"'{what}' must be a list of names")
    return x


def _nodes(rows) -> list:
    _require(isinstance(rows, list) and rows, "scenario needs a nonempty 'nodes' list")
    seen = {}
    for row in rows:
        _require(isinstance(row, dict), "each node must be an object")
        extra = set(row) - {"ip", "nbrs"}
        _require(not extra, f"unknown node keys {_quote(sorted(extra))}")
        ip = row.get("ip")
        _require(_is_int(ip), "node 'ip' must be an integer")
        _require(ip not in seen, f"duplicate node address {ip}")
        nbrs = row.get("nbrs", [])
        _require(isinstance(nbrs, list), "'nbrs' must be a list")
        for n in nbrs:
            _require(_is_int(n), "neighbour addresses must be integers")
            _require(n != ip, f"node {ip} lists itself as a neighbour")
        seen[ip] = set(nbrs)
    for ip, nbrs in seen.items():
        for n in nbrs:
            _require(n in seen, f"node {ip} lists unknown neighbour {n}")
    for ip, nbrs in sorted(seen.items()):
        for n in sorted(nbrs):
            if ip not in seen[n]:
                warnings.warn(f"symmetrizing link {ip}-{n}: "
                              f"{n} did not list {ip}")
                seen[n].add(ip)
    return [(ip, frozenset(nbrs)) for ip, nbrs in seen.items()]


def _env(obj, ips) -> EnvMenu:
    if obj is None:
        return env_menu()
    _require(isinstance(obj, dict), "'env' must be an object")
    extra = set(obj) - {"newpkts", "links"}
    _require(not extra, f"unknown env keys {_quote(sorted(extra))}")
    rows = []
    newpkts, links = obj.get("newpkts", []), obj.get("links", [])
    _require(isinstance(newpkts, list), "'newpkts' must be a list")
    _require(isinstance(links, list), "'links' must be a list")
    for row in newpkts:
        _require(isinstance(row, dict), "each injection must be an object")
        extra = set(row) - {"ip", "data", "dip", "count"}
        _require(not extra, f"unknown injection keys {_quote(sorted(extra))}")
        ip, data, dip = row.get("ip"), row.get("data"), row.get("dip")
        count = row.get("count", 1)
        _address(ip, ips, "injection")
        _address(dip, ips, "injection destination")
        _require(isinstance(data, str) and data, "injection 'data' must be a nonempty string")
        _require(_is_int(count) and 1 <= count <= MAX_BUDGET,
                 f"injection count must be in 1..{MAX_BUDGET}")
        rows.append((ip, data, dip, count))
    return env_menu(rows, [_link_event(ev, ips) for ev in links])


def _link_event(ev, ips):
    _require(isinstance(ev, list) and len(ev) == 3,
             f"link event must be [op, a, b], got {_quote(ev)}")
    op, a, b = ev
    _require(op in ("connect", "disconnect"), f"unknown link op {_quote(op)}")
    _address(a, ips, f"link event {_quote(ev)}")
    _address(b, ips, f"link event {_quote(ev)}")
    _require(a != b, "link event endpoints must differ")
    return ConnectA(a, b) if op == "connect" else DisconnectA(a, b)


def _schedule(obj, ips) -> Optional[Schedule]:
    if obj is None:
        return None
    _require(isinstance(obj, dict), "'schedule' must be an object")
    extra = set(obj) - {"seed", "steps", "events"}
    _require(not extra, f"unknown schedule keys {_quote(sorted(extra))}")
    seed = obj.get("seed", 0)
    steps = obj.get("steps", 200)
    _require(_is_int(seed), "'seed' must be an integer")
    _require(_is_int(steps) and steps >= 1, "'steps' must be an integer >= 1")
    raw = obj.get("events")
    if raw is None:
        raw = {}
    _require(isinstance(raw, dict), "'events' must be an object")
    events = {}
    for key, spec in raw.items():
        # int() would also read "1_0", " 3", "+4" and non-ASCII digits
        _require(key.isascii() and key.isdigit(),
                 f"event index {_quote(key)} is not a decimal integer")
        idx = int(key)
        _require(idx < steps, f"event index {idx} outside 0..{steps - 1}")
        _require(idx not in events, f"two events at step {idx}")
        _require(isinstance(spec, list) and spec, f"bad event {_quote(spec)}")
        if spec[0] == "newpkt":
            _require(len(spec) == 4, "newpkt event must be [\"newpkt\", ip, data, dip]")
            _, ip, data, dip = spec
            _address(ip, ips, f"event {_quote(spec)}")
            _address(dip, ips, f"event {_quote(spec)}")
            _require(isinstance(data, str) and data, "event data must be a nonempty string")
            events[idx] = NewpktA(ip, data, dip)
        else:
            events[idx] = _link_event(spec, ips)
    return Schedule(seed, steps, FrozenMap(events))


def parse_scenario(obj: dict, name: str = "scenario") -> Scenario:
    _require(isinstance(obj, dict), "scenario must be a JSON object")
    known = {"nodes", "variant", "mutate", "env", "schedule", "suites", "bound"}
    extra = set(obj) - known
    _require(not extra, f"unknown scenario keys {_quote(sorted(extra))}")

    rows = _nodes(obj.get("nodes"))
    ips = {ip for ip, _ in rows}
    tree = tree_of(rows)

    variant = obj.get("variant", "base")
    _require(isinstance(variant, str), "'variant' must be a name")
    mutate = _names(obj.get("mutate", []), "mutate")
    try:
        cfg = get_variant(variant)
        cfg = apply_mutations(cfg, mutate)
    except VariantError as e:
        raise ScenarioError(str(e)) from None

    env = _env(obj.get("env"), ips)
    sched = _schedule(obj.get("schedule"), ips)

    suites = obj.get("suites")
    if suites is not None:
        _names(suites, "suites")
        try:
            split_suites(suites)
        except SuiteError as e:
            raise ScenarioError(str(e)) from None
        suites = tuple(suites)

    bound = obj.get("bound")
    if bound is not None:
        _require(_is_int(bound) and bound >= 0, "'bound' must be an integer >= 0")

    return Scenario(name, tree, cfg, env, sched, suites, bound)
