"""Routing table values and the operations the protocol performs on them.

A routing table maps destination addresses to route entries.  Entries
carry a destination sequence number together with a flag saying whether
that number is actually known, a validity flag, a hop count, the next
hop, and (in the full protocol) the set of precursors to notify when the
route dies.

``net_seqno`` is the quality measure used by the invariants: the
sequence number as seen by the rest of the network, discounted by one
when the route is invalid.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .canon import FrozenMap

KNOWN = "kno"
UNKNOWN = "unk"
VALID = "val"
INVALID = "inv"


@dataclass(frozen=True)
class RouteEntry:
    dsn: int
    dsk: str            # KNOWN | UNKNOWN
    flag: str           # VALID | INVALID
    hops: int
    nhip: int
    pre: frozenset      # precursor addresses


@dataclass(frozen=True)
class SlimRouteEntry:
    """Route entry without precursors, for the broadcast error variant."""

    dsn: int
    dsk: str
    flag: str
    hops: int
    nhip: int


def known_dests(rt: FrozenMap) -> frozenset:
    return frozenset(rt)


def valid_dests(rt: FrozenMap) -> frozenset:
    return frozenset(d for d, e in rt.items() if e.flag == VALID)


def invalid_dests(rt: FrozenMap) -> frozenset:
    return frozenset(d for d, e in rt.items() if e.flag == INVALID)


def seqno(rt: FrozenMap, dip: int) -> int:
    """Destination sequence number, 0 when nothing is known."""
    e = rt.get(dip)
    return 0 if e is None else e.dsn


def seqno_status(rt: FrozenMap, dip: int) -> str:
    e = rt.get(dip)
    return UNKNOWN if e is None else e.dsk


def hop_count(rt: FrozenMap, dip: int) -> int:
    return rt[dip].hops


def next_hop(rt: FrozenMap, dip: int) -> int:
    return rt[dip].nhip


def precursors(rt: FrozenMap, dip: int) -> frozenset:
    return rt[dip].pre


def net_seqno(rt: FrozenMap, dip: int) -> int:
    """Sequence number advertised to others; invalid routes count less."""
    e = rt.get(dip)
    if e is None or e.flag == VALID:
        return seqno(rt, dip)
    return max(e.dsn - 1, 0)


def strictly_fresher(rt1: FrozenMap, rt2: FrozenMap, dip: int) -> bool:
    """Route quality comparison along a hop.

    True when ``rt1``'s information about ``dip`` is strictly worse than
    ``rt2``'s: smaller net sequence number, or equal numbers with a
    larger hop count.  Both tables must know ``dip``.
    """
    if dip not in rt1 or dip not in rt2:
        raise ValueError(f"strictly_fresher: destination {dip} not known")
    n1, n2 = net_seqno(rt1, dip), net_seqno(rt2, dip)
    if n1 != n2:
        return n1 < n2
    return rt1[dip].hops > rt2[dip].hops


def _merged_pre(entry, old):
    if hasattr(entry, "pre"):
        return replace(entry, pre=entry.pre | old.pre)
    return entry


def update_route(rt: FrozenMap, dip: int, entry, accept_stale: bool = False):
    """Fold a candidate route for ``dip`` into the table.

    The candidate wins when the destination is new, when it carries a
    larger sequence number, or the same number with fewer hops or
    against an invalid route.  A candidate with unknown sequence-number
    status is installed but keeps the old number and status.  Otherwise
    the table is unchanged except that the candidate's precursors are
    remembered.  ``accept_stale`` widens the second case to any number
    that merely differs; it exists so the checker can demonstrate what
    that mistake costs.
    """
    old = rt.get(dip)
    if old is None:
        return rt.set(dip, entry)
    cur = old.dsn
    if (cur != entry.dsn) if accept_stale else (cur < entry.dsn):
        return rt.set(dip, _merged_pre(entry, old))
    if cur == entry.dsn and (old.hops > entry.hops or old.flag == INVALID):
        return rt.set(dip, _merged_pre(entry, old))
    if entry.dsk == UNKNOWN:
        kept = replace(entry, dsn=old.dsn, dsk=old.dsk)
        return rt.set(dip, _merged_pre(kept, old))
    return rt.set(dip, _merged_pre(old, entry))


def invalidate_routes(rt: FrozenMap, dests: FrozenMap) -> FrozenMap:
    """Mark the given destinations invalid, taking their new numbers.

    ``dests`` maps destinations to the sequence numbers reported dead;
    destinations the table does not know are ignored.
    """
    out = rt
    for dip, rsn in dests.items():
        e = rt.get(dip)
        if e is not None:
            out = out.set(dip, replace(e, dsn=rsn, flag=INVALID))
    return out


def add_precursors(rt: FrozenMap, dip: int, npre: frozenset) -> FrozenMap:
    """Extend the precursor set of an existing entry (KeyError if absent)."""
    e = rt[dip]
    return rt.set(dip, replace(e, pre=e.pre | npre))


def fresh_rreq_id(rreqs: frozenset, ip: int) -> int:
    """Next route-request identifier: one past the largest this node used."""
    return max((n for o, n in rreqs if o == ip), default=0) + 1
