"""The ad-hoc distance-vector protocol as a table of recursive processes.

One process, ``aodv``, is the main loop: it receives a message and
dispatches on its kind, sends queued data along valid routes, or
originates a route request for queued data without one.  The five
handler processes do the actual work and every path through them clears
the working variables and loops back to ``aodv``.

``build_table`` assembles the table for a given :class:`VariantConfig`,
once per configuration and process; the default configuration is the
unmodified protocol.  Each switch is read by one function:
``use_rreq_id`` and ``forward_handled_rreqs`` by ``rreq_message_kind``,
``use_precursors`` by ``route_entry_kind``, ``forward_all_rreps`` by
``_rrep_body`` and ``accept_stale_update`` by ``_updater``.  The rest
follows from the fields of the two formats: an id in requests decides
``_request_id``, a handled flag adds the relaying of answered requests,
and precursors in routes groupcast route errors.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Any

from .awn import (Assign, Broadcast, Call, Deliver, Groupcast, Guard,
                  ModelError, ProcessTable, Receive, Send, Unicast, choice,
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
        if cfg.forward_handled_rreqs:
            # RreqNoId has no handled flag to carry
            raise ModelError("use_rreq_id=False with forward_handled_rreqs="
                             "True has no route-request message kind")
        return RreqNoId
    if cfg.forward_handled_rreqs:
        return RreqFlagged
    return Rreq


def route_entry_kind(cfg: VariantConfig):
    return RouteEntry if cfg.use_precursors else SlimRouteEntry


@cache
def _fields(kind) -> tuple:
    return tuple(f.name for f in fields(kind))


def _build(kind, **values):
    """A ``kind`` holding those of ``values`` that it has fields for."""
    return kind(**{name: values[name] for name in _fields(kind)})


def _rreq(cfg, **values):
    return _build(rreq_message_kind(cfg), **values)


def _route(cfg, dsn, dsk, hops, nhip):
    return _build(route_entry_kind(cfg), dsn=dsn, dsk=dsk, flag=VALID,
                  hops=hops, nhip=nhip, pre=EMPTY)


def _keeps_precursors(cfg) -> bool:
    return "pre" in _fields(route_entry_kind(cfg))


def _rreq_has(cfg, name: str) -> bool:
    return name in _fields(rreq_message_kind(cfg))


def _request_id(cfg):
    """A request's identity from (originator, request id, originator sn).

    Requests that carry no id are told apart by the originator's
    sequence number instead.
    """
    if _rreq_has(cfg, "rreqid"):
        return lambda oip, rreqid, osn: (oip, rreqid)
    return lambda oip, rreqid, osn: (oip, osn)


def _updater(cfg):
    def upd(rt, dip, entry):
        return update_route(rt, dip, entry, accept_stale=cfg.accept_stale_update)

    return upd


def _true(test):
    """Boolean condition as a guard body: pass the state through or block."""
    return lambda xi: (xi,) if test(xi) else ()


def _bind_dip(candidates):
    """Guard binding dip to each candidate destination in turn."""
    return lambda xi: tuple(replace(xi, dip=d) for d in sorted(candidates(xi)))


def _bind_msg(xi):
    """Copy each field of the received message to the variable of its name."""
    m = xi.msg
    return replace(xi, **{name: getattr(m, name) for name in _fields(type(m))})


def _done():
    """Clear the working variables and go back to the main loop."""
    return seq(Assign(clear_locals), Call("aodv"))


def _joint_precursors(rt: FrozenMap, dests: FrozenMap) -> frozenset:
    return frozenset().union(*(precursors(rt, rip) for rip in dests))


def _report_loss(cfg, pre):
    """Report the routes in ``dests`` as lost, then loop.

    Where routes keep precursors the report is groupcast to ``pre(xi)``,
    the nodes relying on them; otherwise it is broadcast.
    """
    rerr = lambda xi: Rerr(xi.dests, xi.ip)
    if _keeps_precursors(cfg):
        return seq(Assign(lambda xi: replace(xi, pre=pre(xi))),
                   Groupcast(lambda xi: xi.pre, rerr), _done())
    return seq(Broadcast(rerr), _done())


def _notify_route_loss(cfg, failed_dest):
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

    return seq(
        Assign(bind_dests),
        Assign(lambda xi: replace(xi, rt=invalidate_routes(xi.rt, xi.dests))),
        Assign(lambda xi: replace(
            xi, store=mark_requested(xi.store, frozenset(xi.dests)))),
        _report_loss(cfg, lambda xi: _joint_precursors(xi.rt, xi.dests)))


def _unicast_towards(cfg, dest, msg, ok=None):
    """Unicast to the next hop towards ``dest(xi)``, then ``ok`` or loop.

    A dead link is handled by :func:`_notify_route_loss`.
    """
    return Unicast(lambda xi: next_hop(xi.rt, dest(xi)), msg,
                   ok=_done() if ok is None else ok,
                   fail=_notify_route_loss(cfg, dest))


def _main_body(cfg):
    handlers = ((Newpkt, "newpkt"), (Pkt, "pkt"),
                (rreq_message_kind(cfg), "rreq"), (Rrep, "rrep"),
                (Rerr, "rerr"))
    receive_branch = Receive(
        lambda m, xi: replace(xi, msg=m),
        choice(*(seq(Guard(_true(lambda xi, k=kind: isinstance(xi.msg, k))),
                     Assign(_bind_msg), Call(name))
                 for kind, name in handlers)),
    )

    send_branch = seq(
        Guard(_bind_dip(lambda xi: queued_dests(xi.store) & valid_dests(xi.rt))),
        Assign(lambda xi: replace(xi, data=head_datum(xi.store, xi.dip))),
        _unicast_towards(
            cfg, lambda xi: xi.dip, lambda xi: Pkt(xi.data, xi.dip, xi.ip),
            ok=seq(Assign(lambda xi: replace(
                       xi, store=dequeue_datum(xi.store, xi.dip))),
                   _done())),
    )

    def wants_route(xi):
        return frozenset(d for d in queued_dests(xi.store) - valid_dests(xi.rt)
                         if xi.store[d].flag == REQUESTED)

    ident = _request_id(cfg)
    parts = [Guard(_bind_dip(wants_route))]
    if _rreq_has(cfg, "rreqid"):
        parts.append(Assign(lambda xi: replace(
            xi, rreqid=fresh_rreq_id(xi.rreqs, xi.ip))))
    parts += [
        Assign(lambda xi: replace(xi, sn=xi.sn + 1)),
        Assign(lambda xi: replace(
            xi, rreqs=xi.rreqs | {ident(xi.ip, xi.rreqid, xi.sn)})),
        Assign(lambda xi: replace(xi, store=mark_no_request(xi.store, xi.dip))),
        Broadcast(lambda xi: _rreq(
            cfg, hops=0, rreqid=xi.rreqid, dip=xi.dip,
            dsn=seqno(xi.rt, xi.dip),
            dsk=KNOWN if xi.dip in xi.rt else UNKNOWN,
            oip=xi.ip, osn=xi.sn, sip=xi.ip, handled=False)),
        _done(),
    ]
    return choice(receive_branch, send_branch, seq(*parts))


def _deliver_here():
    return seq(Guard(_true(lambda xi: xi.dip == xi.ip)),
               Deliver(lambda xi: xi.data), _done())


def _newpkt_body(cfg):
    return choice(
        _deliver_here(),
        seq(Guard(_true(lambda xi: xi.dip != xi.ip)),
            Assign(lambda xi: replace(
                xi, store=enqueue_datum(xi.store, xi.dip, xi.data))),
            _done()),
    )


def _pkt_body(cfg):
    return choice(
        _deliver_here(),
        seq(Guard(_true(lambda xi: xi.dip != xi.ip
                        and xi.dip in valid_dests(xi.rt))),
            _unicast_towards(cfg, lambda xi: xi.dip,
                             lambda xi: Pkt(xi.data, xi.dip, xi.ip))),
        # no usable route: report the one dead destination, drop the datum
        seq(Guard(_true(lambda xi: xi.dip != xi.ip
                        and xi.dip not in valid_dests(xi.rt))),
            Assign(lambda xi: replace(
                xi, dests=FrozenMap({xi.dip: seqno(xi.rt, xi.dip) + 1}))),
            _report_loss(cfg, lambda xi: (precursors(xi.rt, xi.dip)
                                          if xi.dip in invalid_dests(xi.rt)
                                          else EMPTY))),
    )


def _rreq_body(cfg):
    upd = _updater(cfg)
    ident = _request_id(cfg)

    def seen(xi):
        return ident(xi.oip, xi.rreqid, xi.osn) in xi.rreqs

    def away(xi):
        return xi.dip != xi.ip

    def fresh_enough(xi):
        # a valid local route at least as new as the one requested
        return (xi.dip in valid_dests(xi.rt)
                and xi.dsn <= seqno(xi.rt, xi.dip)
                and seqno_status(xi.rt, xi.dip) == KNOWN)

    answer = seq(
        Guard(_true(lambda xi: xi.dip == xi.ip)),
        Assign(lambda xi: replace(xi, sn=max(xi.sn, xi.dsn))),
        _unicast_towards(cfg, lambda xi: xi.oip,
                         lambda xi: Rrep(0, xi.ip, xi.sn, xi.oip, xi.ip)),
    )

    def reply_midway(ok):
        parts = []
        if _keeps_precursors(cfg):
            parts += [
                Assign(lambda xi: replace(xi, rt=add_precursors(
                    xi.rt, xi.dip, frozenset([xi.sip])))),
                Assign(lambda xi: replace(xi, rt=add_precursors(
                    xi.rt, xi.oip, frozenset([next_hop(xi.rt, xi.dip)])))),
            ]
        return seq(*parts, _unicast_towards(
            cfg, lambda xi: xi.oip,
            lambda xi: Rrep(hop_count(xi.rt, xi.dip), xi.dip,
                            seqno(xi.rt, xi.dip), xi.oip, xi.ip),
            ok))

    def forward(answered):
        return seq(Broadcast(lambda xi: _rreq(
            cfg, hops=xi.hops + 1, rreqid=xi.rreqid, dip=xi.dip,
            dsn=max(seqno(xi.rt, xi.dip), xi.dsn), dsk=xi.dsk, oip=xi.oip,
            osn=xi.osn, sip=xi.ip, handled=answered or xi.handled)), _done())

    if _rreq_has(cfg, "handled"):
        # an answered request goes on, flagged so nobody answers it twice
        midway = (
            seq(Guard(_true(lambda xi: away(xi) and fresh_enough(xi)
                            and not xi.handled)),
                reply_midway(ok=forward(True))),
            seq(Guard(_true(lambda xi: away(xi) and fresh_enough(xi)
                            and xi.handled)),
                forward(True)),
        )
    else:
        midway = (seq(Guard(_true(lambda xi: away(xi) and fresh_enough(xi))),
                      reply_midway(ok=_done())),)
    main = choice(
        answer,
        *midway,
        seq(Guard(_true(lambda xi: away(xi) and not fresh_enough(xi))),
            forward(False)),
    )

    return seq(
        Assign(lambda xi: replace(xi, rt=upd(
            xi.rt, xi.sip, _route(cfg, 0, UNKNOWN, 1, xi.sip)))),
        choice(
            seq(Guard(_true(seen)), _done()),
            seq(Guard(_true(lambda xi: not seen(xi))),
                Assign(lambda xi: replace(
                    xi, rreqs=xi.rreqs | {ident(xi.oip, xi.rreqid, xi.osn)})),
                Assign(lambda xi: replace(xi, rt=upd(
                    xi.rt, xi.oip,
                    _route(cfg, xi.osn, KNOWN, xi.hops + 1, xi.sip)))),
                main),
        ),
    )


def _rrep_body(cfg):
    upd = _updater(cfg)

    def offered(xi):
        # the table after the reply's route to its destination is offered
        return upd(xi.rt, xi.dip,
                   _route(cfg, xi.dsn, KNOWN, xi.hops + 1, xi.sip))

    if cfg.forward_all_rreps:
        # pass the best local route on
        relayed = lambda xi: Rrep(hop_count(xi.rt, xi.dip), xi.dip,
                                  seqno(xi.rt, xi.dip), xi.oip, xi.ip)
    else:
        relayed = lambda xi: Rrep(xi.hops + 1, xi.dip, xi.dsn, xi.oip, xi.ip)
    relay = []
    if _keeps_precursors(cfg):
        relay.append(Assign(lambda xi: replace(xi, rt=add_precursors(
            xi.rt, xi.dip, frozenset([next_hop(xi.rt, xi.oip)])))))
    relay.append(_unicast_towards(cfg, lambda xi: xi.oip, relayed))

    install = seq(
        Assign(lambda xi: replace(xi, rt=offered(xi))),
        choice(
            seq(Guard(_true(lambda xi: xi.oip == xi.ip)), _done()),
            seq(Guard(_true(lambda xi: xi.oip != xi.ip
                            and xi.oip in valid_dests(xi.rt))), *relay),
            seq(Guard(_true(lambda xi: xi.oip != xi.ip
                            and xi.oip not in valid_dests(xi.rt))), _done()),
        ),
    )
    if not cfg.forward_all_rreps:
        # a reply carrying nothing new is dropped
        install = choice(
            seq(Guard(_true(lambda xi: offered(xi) != xi.rt)), install),
            seq(Guard(_true(lambda xi: offered(xi) == xi.rt)), _done()),
        )
    return seq(
        Assign(lambda xi: replace(xi, rt=upd(
            xi.rt, xi.sip, _route(cfg, 0, UNKNOWN, 1, xi.sip)))),
        install,
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

    report = _report_loss(cfg, lambda xi: _joint_precursors(xi.rt, xi.dests))
    if not _keeps_precursors(cfg):
        # without precursors to address, only a non-empty report goes out
        report = choice(
            seq(Guard(_true(lambda xi: len(xi.dests) > 0)), report),
            seq(Guard(_true(lambda xi: len(xi.dests) == 0)), _done()),
        )
    return seq(
        Assign(narrow),
        Assign(lambda xi: replace(xi, rt=invalidate_routes(xi.rt, xi.dests))),
        report,
    )


def build_table(cfg: VariantConfig = BASE) -> ProcessTable:
    """The labelled process table of ``cfg``, built once per process.

    Every run of one configuration shares the table, and with it the
    label memo and ``monitor.dispatch_locations`` it keeps, the process
    states and process steps it owns, and the node states and node
    steps it keeps per queue table and address (``awn.ProcessTable``).
    That is safe because the table holds no run state.  Its label memo
    is keyed by its own terms.  Its step memo holds values of
    ``seq_steps``, a pure function of the table's terms and a process
    state, keyed by the state's number, which only names the value; no
    step order, digest, draw or file byte reads a number.  The node
    memos are likewise pure functions of a node state's number and
    the menu projected onto the node.  A run's node and subnet
    automata, its subnet memos and intern tables, and its menus are
    built per run.  The configurations form a small fixed set (the
    named variants, with or without mutations), so the memo of tables
    stays small, and each table's memos stop at ``awn._MEMO_CAP``.
    It is keyed on the configuration's value, so ``build_table()`` and
    ``build_table(cfg=BASE)`` give one table; a build that raises is not
    kept.
    """
    return _labelled_table(cfg)


@cache
def _labelled_table(cfg: VariantConfig) -> ProcessTable:
    bodies = {
        "aodv": _main_body(cfg),
        "newpkt": _newpkt_body(cfg),
        "pkt": _pkt_body(cfg),
        "rreq": _rreq_body(cfg),
        "rrep": _rrep_body(cfg),
        "rerr": _rerr_body(cfg),
    }
    return ProcessTable({name: label_process(name, body)
                         for name, body in bodies.items()})


@cache
def queue_table() -> ProcessTable:
    """First-in-first-out message queue between the network and the protocol.

    The table is built once: a queue state compares its control term by
    identity unless the term is a call, so every network must share one
    queue table for equal states of two automata to compare equal.  Every
    queue of every run interns its states and reads its steps there
    (see ``build_table`` for why that is safe).

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
