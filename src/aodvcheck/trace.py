"""Readable action strings and line-delimited JSON trace files.

Trace files begin with a header record carrying everything needed to
reproduce the run (scenario, variant, mutations, seed), followed by one
record per step: the acting node, a rendered action, and the hex of the
reached state's structural digest (``canon.bdigest``), then a violation
record if a suite failed and a final record.  Records hold only
integers and strings, so files are byte-identical across platforms and
runs.

A simulation run does not build its records as it goes: it keeps the
steps it walked, and ``simulate.SimResult.records`` renders and digests
them the first time the trace is read.
"""
from __future__ import annotations

import json

from .awn import (ArriveA, BroadcastA, CastA, ConnectA, DeliverA, DeliverAtA,
                  DisconnectA, GroupcastA, NewpktA, ReceiveA, SendA, TauA,
                  UnicastA, UnicastFailA)

# The format also names the state encoding behind the recorded digests,
# here ``bdigest``: a trace whose header carries another format cannot be
# checked by them.
TRACE_FORMAT = "aodvcheck-trace-3"


def render_action(a) -> str:
    if isinstance(a, TauA):
        return "tau"
    if isinstance(a, CastA):
        return f"cast({sorted(a.dests)}, {a.msg!r})"
    if isinstance(a, ArriveA):
        return f"arrive({sorted(a.heard)}, {sorted(a.missed)}, {a.msg!r})"
    if isinstance(a, NewpktA):
        return f"newpkt({a.ip}, {a.data!r}, {a.dip})"
    if isinstance(a, DeliverAtA):
        return f"deliver({a.ip}, {a.data!r})"
    if isinstance(a, ConnectA):
        return f"connect({a.a}, {a.b})"
    if isinstance(a, DisconnectA):
        return f"disconnect({a.a}, {a.b})"
    if isinstance(a, UnicastFailA):
        return f"unicast_fail({a.dest})"
    if isinstance(a, BroadcastA):
        return f"broadcast({a.msg!r})"
    if isinstance(a, GroupcastA):
        return f"groupcast({sorted(a.dests)}, {a.msg!r})"
    if isinstance(a, UnicastA):
        return f"unicast({a.dest}, {a.msg!r})"
    if isinstance(a, SendA):
        return f"send({a.msg!r})"
    if isinstance(a, ReceiveA):
        return f"receive({a.msg!r})"
    if isinstance(a, DeliverA):
        return f"deliver({a.data!r})"
    raise TypeError(f"unknown action {a!r}")


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
