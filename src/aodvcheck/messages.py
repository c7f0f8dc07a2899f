"""Message types exchanged by the protocol.

``Newpkt`` is the client-layer injection asking a node to get a datum
to a destination; everything else travels between nodes.  The two extra
route-request shapes belong to protocol variants: one drops the request
identifier and keys duplicate suppression on the originator's sequence
number instead, the other carries a flag recording whether some node on
the path already answered the request.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .canon import FrozenMap
from .canon import value_key  # noqa: F401  (bench/spans.py patches this name)


@dataclass(frozen=True)
class Newpkt:
    data: Any
    dip: int


@dataclass(frozen=True)
class Pkt:
    data: Any
    dip: int
    sip: int


@dataclass(frozen=True)
class Rreq:
    hops: int
    rreqid: int
    dip: int
    dsn: int
    dsk: str
    oip: int
    osn: int
    sip: int


@dataclass(frozen=True)
class RreqNoId:
    hops: int
    dip: int
    dsn: int
    dsk: str
    oip: int
    osn: int
    sip: int


@dataclass(frozen=True)
class RreqFlagged:
    hops: int
    rreqid: int
    dip: int
    dsn: int
    dsk: str
    oip: int
    osn: int
    sip: int
    handled: bool


@dataclass(frozen=True)
class Rrep:
    hops: int
    dip: int
    dsn: int
    oip: int
    sip: int


@dataclass(frozen=True)
class Rerr:
    dests: FrozenMap  # destination -> sequence number reported unreachable
    sip: int

