"""Readable action strings and line-delimited JSON trace files.

Trace files begin with a header record carrying everything needed to
reproduce the run (scenario, variant, mutations, seed), followed by one
record per step: the acting node, a rendered action, and the hex of the
reached state's structural digest (``canon.bdigest``), then a violation
record if a suite failed and a final record.  Records hold only
integers and strings, so files are byte-identical across platforms and
runs.

A step's action is rendered from its dataclass, as keys and digests are
(see :mod:`aodvcheck.canon`): one table names each class a step's detail
or a scheduled event can be, and its fields follow in declaration order.
The node layer turns every process-level action (broadcast, unicast,
send and the like) into one of those, so those are never rendered.

A simulation run does not build its records as it goes: it keeps the
steps it walked, and ``simulate.SimResult.records`` renders and digests
them the first time the trace is read.
"""
from __future__ import annotations

import json
from dataclasses import fields

from .awn import (ArriveA, CastA, ConnectA, DeliverAtA, DisconnectA, NewpktA,
                  TauA, UnicastFailA)

# The format also names the state encoding behind the recorded digests,
# here ``bdigest``: a trace whose header carries another format cannot be
# checked by them.
TRACE_FORMAT = "aodvcheck-trace-3"

# The classes a step's detail or a scheduled event can be, by the name
# each is rendered under
_NAMES = {TauA: "tau", CastA: "cast", ArriveA: "arrive", NewpktA: "newpkt",
          DeliverAtA: "deliver", ConnectA: "connect",
          DisconnectA: "disconnect", UnicastFailA: "unicast_fail"}


def render_action(a) -> str:
    """``name(field, ...)``: a frozenset field as its sorted list, any
    other by ``repr``; an action without fields is its bare name."""
    name = _NAMES.get(type(a))
    if name is None:
        raise TypeError(f"unknown action {a!r}")
    args = [repr(sorted(v) if isinstance(v, frozenset) else v)
            for v in (getattr(a, f.name) for f in fields(a))]
    return f"{name}({', '.join(args)})" if args else name


def sigma_dict(data_by_ip: dict) -> dict:
    """JSON-ready dump of every node's data record (integers and strings)."""
    out = {}
    for ip in sorted(data_by_ip):
        d = data_by_ip[ip]
        rt = {}
        for dip in sorted(d.rt):
            e = d.rt[dip]
            row = {"dsn": e.dsn, "dsk": e.dsk, "flag": e.flag,
                   "hops": e.hops, "nhip": e.nhip}
            if hasattr(e, "pre"):
                row["pre"] = sorted(e.pre)
            rt[str(dip)] = row
        store = {str(dip): {"flag": s.flag, "queue": [repr(x) for x in s.queue]}
                 for dip, s in sorted(d.store.items())}
        out[str(ip)] = {
            "sn": d.sn,
            "rt": rt,
            "store": store,
            "rreqs": [list(p) for p in sorted(d.rreqs)],
        }
    return out


def dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_trace(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dump_record(record) + "\n")


def load_trace(path: str) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
