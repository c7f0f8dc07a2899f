"""The ad-hoc distance-vector protocol as a table of recursive processes.

One process, ``aodv``, is the main loop: it receives a message and
dispatches on its kind, sends queued data along valid routes, or
originates a route request for queued data without one.  The five
handler processes do the actual work and every path through them clears
the working variables and loops back to ``aodv``.

``build_table`` assembles the table for a given :class:`VariantConfig`;
the default configuration is the unmodified protocol.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .awn import (Assign, Broadcast, Call, Deliver, Groupcast, Guard,
                  ProcessTable, Receive, Send, Unicast, choice,
                  label_process, seq)
from .canon import EMPTY_MAP, FrozenMap
from .canon import value_key  # noqa: F401  (bench/spans.py patches this name)
from .messages import Newpkt, Pkt, Rerr, Rreq, RreqFlagged, RreqNoId, Rrep
from .routing import (KNOWN, UNKNOWN, VALID, RouteEntry, SlimRouteEntry,
                      add_precursors, fresh_rreq_id, hop_count,
                      invalid_dests, invalidate_routes, next_hop, precursors,
                      seqno, seqno_status, update_route, valid_dests)

EMPTY = frozenset()

REQUESTED = "req"
NOT_REQUESTED = "noreq"


@dataclass(frozen=True)
class StoreSlot:
    """Pending data for one destination, plus the route-request flag."""

    flag: str      # REQUESTED | NOT_REQUESTED
    queue: tuple


def queued_dests(store: FrozenMap) -> frozenset:
    return frozenset(store)


def enqueue_datum(store: FrozenMap, dip: int, datum) -> FrozenMap:
    slot = store.get(dip)
    if slot is None:
        return store.set(dip, StoreSlot(REQUESTED, (datum,)))
    return store.set(dip, StoreSlot(slot.flag, slot.queue + (datum,)))


def head_datum(store: FrozenMap, dip: int):
    return store[dip].queue[0]


def dequeue_datum(store: FrozenMap, dip: int) -> FrozenMap:
    slot = store[dip]
    rest = slot.queue[1:]
    if not rest:
        return store.remove(dip)
    return store.set(dip, StoreSlot(slot.flag, rest))


def mark_no_request(store: FrozenMap, dip: int) -> FrozenMap:
    return store.set(dip, StoreSlot(NOT_REQUESTED, store[dip].queue))


def mark_requested(store: FrozenMap, dips) -> FrozenMap:
    out = store
    for dip in dips:
        slot = store.get(dip)
        if slot is not None:
            out = out.set(dip, StoreSlot(REQUESTED, slot.queue))
    return out


@dataclass(frozen=True)
class AodvData:
    """One node's entire data state.

    The first five fields survive across handler runs.  The rest are
    working variables: they hold the fields of the message being
    handled plus scratch values, and ``clear_locals`` resets them when
    control returns to the main loop.
    """

    ip: int
    sn: int = 1
    rt: FrozenMap = EMPTY_MAP        # destination -> route entry
    rreqs: frozenset = EMPTY         # request identities already handled
    store: FrozenMap = EMPTY_MAP     # destination -> StoreSlot
    msg: Any = None
    data: Any = None
    dests: FrozenMap = EMPTY_MAP
    pre: frozenset = EMPTY
    rreqid: int = 0
    dip: int = 0
    dsn: int = 0
    dsk: str = UNKNOWN
    oip: int = 0
    osn: int = 0
    sip: int = 0
    hops: int = 0
    handled: bool = False


def clear_locals(xi: AodvData) -> AodvData:
    """Reset the working variables; sip gets a fixed value that is not ip."""
    return replace(xi, msg=None, data=None, dests=EMPTY_MAP, pre=EMPTY,
                   rreqid=0, dip=0, dsn=0, dsk=UNKNOWN, oip=0, osn=0,
                   sip=xi.ip + 1, hops=0, handled=False)


def aodv_init(ip: int) -> AodvData:
    return clear_locals(AodvData(ip))


@dataclass(frozen=True)
class VariantConfig:
    """Switches selecting one of the studied protocol modifications.

    ``accept_stale_update`` is not a variant but a deliberately broken
    route update (it also accepts smaller sequence numbers); it exists
    so the checker can demonstrate what that mistake costs.
    """

    name: str = "base"
    use_rreq_id: bool = True            # off: key duplicates on originator sn
    forward_all_rreps: bool = False     # on: relay replies even without news
    use_precursors: bool = True         # off: broadcast route errors instead
    forward_handled_rreqs: bool = False  # on: flag answered requests, pass on
    accept_stale_update: bool = False


BASE = VariantConfig()


def rreq_message_kind(cfg: VariantConfig):
    if not cfg.use_rreq_id:
        return RreqNoId
    if cfg.forward_handled_rreqs:
        return RreqFlagged
    return Rreq


def _true(test):
    """Boolean condition as a guard body: pass the state through or block."""
    return lambda xi: (xi,) if test(xi) else ()


def _bind_dip(candidates):
    """Guard binding dip to each candidate destination in turn."""
    return lambda xi: tuple(replace(xi, dip=d) for d in sorted(candidates(xi)))


def _route(cfg, dsn, dsk, hops, nhip):
    if cfg.use_precursors:
        return RouteEntry(dsn, dsk, VALID, hops, nhip, EMPTY)
    return SlimRouteEntry(dsn, dsk, VALID, hops, nhip)


def _updater(cfg):
    def upd(rt, dip, entry):
        return update_route(rt, dip, entry, accept_stale=cfg.accept_stale_update)

    return upd


def _joint_precursors(rt: FrozenMap, dests: FrozenMap) -> frozenset:
    return frozenset().union(*(precursors(rt, rip) for rip in dests))


def _notify_route_loss(cfg, failed_dest, tail):
    """Reaction to a send over a link that turned out to be gone.

    Every valid route through the dead next hop is invalidated with a
    bumped sequence number, the queued data for those destinations is
    flagged for fresh route requests, and the loss is reported upstream.
    """

    def bind_dests(xi):
        nh = next_hop(xi.rt, failed_dest(xi))
        lost = {rip: seqno(xi.rt, rip) + 1
                for rip in valid_dests(xi.rt)
                if next_hop(xi.rt, rip) == nh}
        return replace(xi, dests=FrozenMap(lost))

    parts = [
        Assign(bind_dests),
        Assign(lambda xi: replace(xi, rt=invalidate_routes(xi.rt, xi.dests))),
        Assign(lambda xi: replace(
            xi, store=mark_requested(xi.store, frozenset(xi.dests)))),
    ]
    if cfg.use_precursors:
        parts += [
            Assign(lambda xi: replace(xi, pre=_joint_precursors(xi.rt, xi.dests))),
            Groupcast(lambda xi: xi.pre, lambda xi: Rerr(xi.dests, xi.ip)),
        ]
    else:
        parts.append(Broadcast(lambda xi: Rerr(xi.dests, xi.ip)))
    parts += [Assign(clear_locals), tail]
    return seq(*parts)


def _rreq_binder(cfg):
    if not cfg.use_rreq_id:
        return lambda xi: replace(
            xi, hops=xi.msg.hops, dip=xi.msg.dip, dsn=xi.msg.dsn,
            dsk=xi.msg.dsk, oip=xi.msg.oip, osn=xi.msg.osn, sip=xi.msg.sip)
    if cfg.forward_handled_rreqs:
        return lambda xi: replace(
            xi, hops=xi.msg.hops, rreqid=xi.msg.rreqid, dip=xi.msg.dip,
            dsn=xi.msg.dsn, dsk=xi.msg.dsk, oip=xi.msg.oip, osn=xi.msg.osn,
            sip=xi.msg.sip, handled=xi.msg.handled)
    return lambda xi: replace(
        xi, hops=xi.msg.hops, rreqid=xi.msg.rreqid, dip=xi.msg.dip,
        dsn=xi.msg.dsn, dsk=xi.msg.dsk, oip=xi.msg.oip, osn=xi.msg.osn,
        sip=xi.msg.sip)


def _origin_rreq(cfg):
    def status(xi):
        return KNOWN if xi.dip in xi.rt else UNKNOWN

    if not cfg.use_rreq_id:
        return lambda xi: RreqNoId(0, xi.dip, seqno(xi.rt, xi.dip), status(xi),
                                   xi.ip, xi.sn, xi.ip)
    if cfg.forward_handled_rreqs:
        return lambda xi: RreqFlagged(0, xi.rreqid, xi.dip,
                                      seqno(xi.rt, xi.dip), status(xi),
                                      xi.ip, xi.sn, xi.ip, False)
    return lambda xi: Rreq(0, xi.rreqid, xi.dip, seqno(xi.rt, xi.dip),
                           status(xi), xi.ip, xi.sn, xi.ip)


def _main_body(cfg, rreq_kind):
    bind_newpkt = lambda xi: replace(xi, data=xi.msg.data, dip=xi.msg.dip)
    bind_pkt = lambda xi: replace(xi, data=xi.msg.data, dip=xi.msg.dip,
                                  sip=xi.msg.sip)
    bind_rrep = lambda xi: replace(xi, hops=xi.msg.hops, dip=xi.msg.dip,
                                   dsn=xi.msg.dsn, oip=xi.msg.oip,
                                   sip=xi.msg.sip)
    bind_rerr = lambda xi: replace(xi, dests=xi.msg.dests, sip=xi.msg.sip)

    receive_branch = Receive(
        lambda m, xi: replace(xi, msg=m),
        choice(
            seq(Guard(_true(lambda xi: isinstance(xi.msg, Newpkt))),
                Assign(bind_newpkt), Call("newpkt")),
            seq(Guard(_true(lambda xi: isinstance(xi.msg, Pkt))),
                Assign(bind_pkt), Call("pkt")),
            seq(Guard(_true(lambda xi: isinstance(xi.msg, rreq_kind))),
                Assign(_rreq_binder(cfg)), Call("rreq")),
            seq(Guard(_true(lambda xi: isinstance(xi.msg, Rrep))),
                Assign(bind_rrep), Call("rrep")),
            seq(Guard(_true(lambda xi: isinstance(xi.msg, Rerr))),
                Assign(bind_rerr), Call("rerr")),
        ),
    )

    send_branch = seq(
        Guard(_bind_dip(lambda xi: queued_dests(xi.store) & valid_dests(xi.rt))),
        Assign(lambda xi: replace(xi, data=head_datum(xi.store, xi.dip))),
        Unicast(
            lambda xi: next_hop(xi.rt, xi.dip),
            lambda xi: Pkt(xi.data, xi.dip, xi.ip),
            ok=seq(Assign(lambda xi: replace(
                       xi, store=dequeue_datum(xi.store, xi.dip))),
                   Assign(clear_locals), Call("aodv")),
            fail=_notify_route_loss(cfg, lambda xi: xi.dip, Call("aodv")),
        ),
    )

    def wants_route(xi):
        return frozenset(d for d in queued_dests(xi.store) - valid_dests(xi.rt)
                         if xi.store[d].flag == REQUESTED)

    parts = [Guard(_bind_dip(wants_route))]
    if cfg.use_rreq_id:
        parts.append(Assign(lambda xi: replace(
            xi, rreqid=fresh_rreq_id(xi.rreqs, xi.ip))))
    parts.append(Assign(lambda xi: replace(xi, sn=xi.sn + 1)))
    if cfg.use_rreq_id:
        parts.append(Assign(lambda xi: replace(
            xi, rreqs=xi.rreqs | {(xi.ip, xi.rreqid)})))
    else:
        parts.append(Assign(lambda xi: replace(
            xi, rreqs=xi.rreqs | {(xi.ip, xi.sn)})))
    parts += [
        Assign(lambda xi: replace(xi, store=mark_no_request(xi.store, xi.dip))),
        Broadcast(_origin_rreq(cfg)),
        Assign(clear_locals),
        Call("aodv"),
    ]
    return choice(receive_branch, send_branch, seq(*parts))


def _newpkt_body(cfg):
    return choice(
        seq(Guard(_true(lambda xi: xi.dip == xi.ip)),
            Deliver(lambda xi: xi.data),
            Assign(clear_locals), Call("aodv")),
        seq(Guard(_true(lambda xi: xi.dip != xi.ip)),
            Assign(lambda xi: replace(
                xi, store=enqueue_datum(xi.store, xi.dip, xi.data))),
            Assign(clear_locals), Call("aodv")),
    )


def _pkt_body(cfg):
    deliver = seq(Guard(_true(lambda xi: xi.dip == xi.ip)),
                  Deliver(lambda xi: xi.data),
                  Assign(clear_locals), Call("aodv"))
    forward = seq(
        Guard(_true(lambda xi: xi.dip != xi.ip
                    and xi.dip in valid_dests(xi.rt))),
        Unicast(lambda xi: next_hop(xi.rt, xi.dip),
                lambda xi: Pkt(xi.data, xi.dip, xi.ip),
                ok=seq(Assign(clear_locals), Call("aodv")),
                fail=_notify_route_loss(cfg, lambda xi: xi.dip, Call("aodv"))),
    )
    # no usable route: report the one dead destination, drop the datum
    parts = [
        Guard(_true(lambda xi: xi.dip != xi.ip
                    and xi.dip not in valid_dests(xi.rt))),
        Assign(lambda xi: replace(
            xi, dests=FrozenMap({xi.dip: seqno(xi.rt, xi.dip) + 1}))),
    ]
    if cfg.use_precursors:
        parts += [
            Assign(lambda xi: replace(
                xi, pre=(precursors(xi.rt, xi.dip)
                         if xi.dip in invalid_dests(xi.rt) else EMPTY))),
            Groupcast(lambda xi: xi.pre, lambda xi: Rerr(xi.dests, xi.ip)),
        ]
    else:
        parts.append(Broadcast(lambda xi: Rerr(xi.dests, xi.ip)))
    parts += [Assign(clear_locals), Call("aodv")]
    return choice(deliver, forward, seq(*parts))


def _rreq_body(cfg):
    upd = _updater(cfg)

    def dup_key(xi):
        return (xi.oip, xi.rreqid) if cfg.use_rreq_id else (xi.oip, xi.osn)

    def fresh_enough(xi):
        # a valid local route at least as new as the one requested
        return (xi.dip in valid_dests(xi.rt)
                and xi.dsn <= seqno(xi.rt, xi.dip)
                and seqno_status(xi.rt, xi.dip) == KNOWN)

    answer = seq(
        Guard(_true(lambda xi: xi.dip == xi.ip)),
        Assign(lambda xi: replace(xi, sn=max(xi.sn, xi.dsn))),
        Unicast(lambda xi: next_hop(xi.rt, xi.oip),
                lambda xi: Rrep(0, xi.ip, xi.sn, xi.oip, xi.ip),
                ok=seq(Assign(clear_locals), Call("aodv")),
                fail=_notify_route_loss(cfg, lambda xi: xi.oip, Call("aodv"))),
    )

    def reply_midway(ok_tail):
        parts = []
        if cfg.use_precursors:
            parts += [
                Assign(lambda xi: replace(xi, rt=add_precursors(
                    xi.rt, xi.dip, frozenset([xi.sip])))),
                Assign(lambda xi: replace(xi, rt=add_precursors(
                    xi.rt, xi.oip, frozenset([next_hop(xi.rt, xi.dip)])))),
            ]
        parts.append(
            Unicast(lambda xi: next_hop(xi.rt, xi.oip),
                    lambda xi: Rrep(hop_count(xi.rt, xi.dip), xi.dip,
                                    seqno(xi.rt, xi.dip), xi.oip, xi.ip),
                    ok=ok_tail,
                    fail=_notify_route_loss(cfg, lambda xi: xi.oip,
                                            Call("aodv"))))
        return seq(*parts)

    def forward_msg(handled=None):
        def make(xi):
            dsn = max(seqno(xi.rt, xi.dip), xi.dsn)
            if not cfg.use_rreq_id:
                return RreqNoId(xi.hops + 1, xi.dip, dsn, xi.dsk,
                                xi.oip, xi.osn, xi.ip)
            if cfg.forward_handled_rreqs:
                h = xi.handled if handled is None else handled
                return RreqFlagged(xi.hops + 1, xi.rreqid, xi.dip, dsn, xi.dsk,
                                   xi.oip, xi.osn, xi.ip, h)
            return Rreq(xi.hops + 1, xi.rreqid, xi.dip, dsn, xi.dsk,
                        xi.oip, xi.osn, xi.ip)

        return make

    if cfg.forward_handled_rreqs:
        main = choice(
            answer,
            seq(Guard(_true(lambda xi: xi.dip != xi.ip and fresh_enough(xi)
                            and not xi.handled)),
                reply_midway(ok_tail=seq(Broadcast(forward_msg(True)),
                                         Assign(clear_locals), Call("aodv")))),
            seq(Guard(_true(lambda xi: xi.dip != xi.ip and fresh_enough(xi)
                            and xi.handled)),
                Broadcast(forward_msg(True)),
                Assign(clear_locals), Call("aodv")),
            seq(Guard(_true(lambda xi: xi.dip != xi.ip
                            and not fresh_enough(xi))),
                Broadcast(forward_msg()),
                Assign(clear_locals), Call("aodv")),
        )
    else:
        main = choice(
            answer,
            seq(Guard(_true(lambda xi: xi.dip != xi.ip and fresh_enough(xi))),
                reply_midway(ok_tail=seq(Assign(clear_locals), Call("aodv")))),
            seq(Guard(_true(lambda xi: xi.dip != xi.ip
                            and not fresh_enough(xi))),
                Broadcast(forward_msg()),
                Assign(clear_locals), Call("aodv")),
        )

    return seq(
        Assign(lambda xi: replace(xi, rt=upd(
            xi.rt, xi.sip, _route(cfg, 0, UNKNOWN, 1, xi.sip)))),
        choice(
            seq(Guard(_true(lambda xi: dup_key(xi) in xi.rreqs)),
                Assign(clear_locals), Call("aodv")),
            seq(Guard(_true(lambda xi: dup_key(xi) not in xi.rreqs)),
                Assign(lambda xi: replace(xi, rreqs=xi.rreqs | {dup_key(xi)})),
                Assign(lambda xi: replace(xi, rt=upd(
                    xi.rt, xi.oip,
                    _route(cfg, xi.osn, KNOWN, xi.hops + 1, xi.sip)))),
                main),
        ),
    )


def _rrep_body(cfg):
    upd = _updater(cfg)

    def fresh_route(xi):
        return _route(cfg, xi.dsn, KNOWN, xi.hops + 1, xi.sip)

    def relay(msg_fn):
        parts = []
        if cfg.use_precursors:
            parts.append(Assign(lambda xi: replace(xi, rt=add_precursors(
                xi.rt, xi.dip, frozenset([next_hop(xi.rt, xi.oip)])))))
        parts.append(
            Unicast(lambda xi: next_hop(xi.rt, xi.oip), msg_fn,
                    ok=seq(Assign(clear_locals), Call("aodv")),
                    fail=_notify_route_loss(cfg, lambda xi: xi.oip,
                                            Call("aodv"))))
        return seq(*parts)

    arrived = seq(Guard(_true(lambda xi: xi.oip == xi.ip)),
                  Assign(clear_locals), Call("aodv"))
    no_reverse = seq(Guard(_true(lambda xi: xi.oip != xi.ip
                                 and xi.oip not in valid_dests(xi.rt))),
                     Assign(clear_locals), Call("aodv"))

    if cfg.forward_all_rreps:
        # take the update unconditionally and pass the best local route on
        fwd = relay(lambda xi: Rrep(hop_count(xi.rt, xi.dip), xi.dip,
                                    seqno(xi.rt, xi.dip), xi.oip, xi.ip))
        return seq(
            Assign(lambda xi: replace(xi, rt=upd(
                xi.rt, xi.sip, _route(cfg, 0, UNKNOWN, 1, xi.sip)))),
            Assign(lambda xi: replace(xi, rt=upd(xi.rt, xi.dip,
                                                 fresh_route(xi)))),
            choice(
                arrived,
                seq(Guard(_true(lambda xi: xi.oip != xi.ip
                                and xi.oip in valid_dests(xi.rt))), fwd),
                no_reverse,
            ),
        )

    fwd = relay(lambda xi: Rrep(xi.hops + 1, xi.dip, xi.dsn, xi.oip, xi.ip))
    return seq(
        Assign(lambda xi: replace(xi, rt=upd(
            xi.rt, xi.sip, _route(cfg, 0, UNKNOWN, 1, xi.sip)))),
        choice(
            seq(Guard(_true(lambda xi: upd(xi.rt, xi.dip,
                                           fresh_route(xi)) != xi.rt)),
                Assign(lambda xi: replace(xi, rt=upd(xi.rt, xi.dip,
                                                     fresh_route(xi)))),
                choice(
                    arrived,
                    seq(Guard(_true(lambda xi: xi.oip != xi.ip
                                    and xi.oip in valid_dests(xi.rt))), fwd),
                    no_reverse,
                )),
            # a reply carrying nothing new is dropped
            seq(Guard(_true(lambda xi: upd(xi.rt, xi.dip,
                                           fresh_route(xi)) == xi.rt)),
                Assign(clear_locals), Call("aodv")),
        ),
    )


def _rerr_body(cfg):
    def narrow(xi):
        # keep only reports about routes that actually go through the
        # sender and carry news
        keep = {rip: rsn for rip, rsn in xi.dests.items()
                if rip in valid_dests(xi.rt)
                and next_hop(xi.rt, rip) == xi.sip
                and seqno(xi.rt, rip) < rsn}
        return replace(xi, dests=FrozenMap(keep))

    parts = [
        Assign(narrow),
        Assign(lambda xi: replace(xi, rt=invalidate_routes(xi.rt, xi.dests))),
    ]
    if cfg.use_precursors:
        parts += [
            Assign(lambda xi: replace(xi, pre=_joint_precursors(xi.rt,
                                                                xi.dests))),
            Groupcast(lambda xi: xi.pre, lambda xi: Rerr(xi.dests, xi.ip)),
            Assign(clear_locals),
            Call("aodv"),
        ]
        return seq(*parts)
    tail = choice(
        seq(Guard(_true(lambda xi: len(xi.dests) > 0)),
            Broadcast(lambda xi: Rerr(xi.dests, xi.ip)),
            Assign(clear_locals), Call("aodv")),
        seq(Guard(_true(lambda xi: len(xi.dests) == 0)),
            Assign(clear_locals), Call("aodv")),
    )
    return seq(*parts, tail)


def build_table(cfg: VariantConfig = BASE) -> ProcessTable:
    kind = rreq_message_kind(cfg)
    bodies = {
        "aodv": _main_body(cfg, kind),
        "newpkt": _newpkt_body(cfg),
        "pkt": _pkt_body(cfg),
        "rreq": _rreq_body(cfg),
        "rrep": _rrep_body(cfg),
        "rerr": _rerr_body(cfg),
    }
    return ProcessTable({name: label_process(name, body)
                         for name, body in bodies.items()})


def queue_table() -> ProcessTable:
    """First-in-first-out message queue between the network and the protocol.

    While waiting to hand the head message over, the queue still accepts
    arrivals; without that alternative two nodes whose queues are both
    mid-handover could block each other's casts forever.
    """
    body = choice(
        Receive(lambda m, q: q + (m,), Call("qmsg")),
        Guard(lambda q: (q,) if q else (),
              choice(
                  Send(lambda q: q[0], Call("qmsg"), update=lambda q: q[1:]),
                  Receive(lambda m, q: q + (m,), Call("qmsg")),
              )),
    )
    return ProcessTable({"qmsg": label_process("qmsg", body)})
