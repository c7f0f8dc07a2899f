"""Routing-table algebra, the message store, and the process table."""
import hashlib
import itertools
import json
from dataclasses import replace

import pytest

from aodvcheck.awn import Call, Choice, NewpktA, Unicast
from aodvcheck.canon import EMPTY_MAP, FrozenMap
from aodvcheck.explore import EnvNet, env_menu, explore
from aodvcheck.network import closed_net
from aodvcheck.protocol import (BASE, StoreSlot, REQUESTED, NOT_REQUESTED,
                                VariantConfig, aodv_init, build_table,
                                clear_locals,
                                dequeue_datum, enqueue_datum, head_datum,
                                mark_no_request, mark_requested, queued_dests,
                                queue_table)
from aodvcheck.routing import (INVALID, KNOWN, UNKNOWN, VALID, RouteEntry,
                               SlimRouteEntry, add_precursors, fresh_rreq_id,
                               hop_count, invalid_dests, invalidate_routes,
                               known_dests, net_seqno, next_hop, precursors,
                               seqno, seqno_status, strictly_fresher,
                               update_route, valid_dests)
from aodvcheck.simulate import Schedule, run
from aodvcheck.variants import VARIANTS, apply_mutations

from helpers import fresh_tables


def rte(dsn=0, dsk=UNKNOWN, flag=VALID, hops=1, nhip=9, pre=frozenset()):
    return RouteEntry(dsn, dsk, flag, hops, nhip, frozenset(pre))


class TestQueries:
    RT = FrozenMap({
        2: rte(dsn=3, dsk=KNOWN, flag=VALID, hops=2, nhip=5, pre={7}),
        3: rte(dsn=1, dsk=UNKNOWN, flag=INVALID, hops=1, nhip=3),
    })

    def test_dest_partitions(self):
        assert known_dests(self.RT) == frozenset([2, 3])
        assert valid_dests(self.RT) == frozenset([2])
        assert invalid_dests(self.RT) == frozenset([3])

    def test_seqno_defaults_to_zero_for_strangers(self):
        assert seqno(self.RT, 2) == 3
        assert seqno(self.RT, 99) == 0
        assert seqno_status(self.RT, 2) == KNOWN
        assert seqno_status(self.RT, 99) == UNKNOWN

    def test_partial_queries_raise_on_strangers(self):
        assert hop_count(self.RT, 2) == 2
        assert next_hop(self.RT, 3) == 3
        assert precursors(self.RT, 2) == frozenset([7])
        for fn in (hop_count, next_hop, precursors):
            with pytest.raises(KeyError):
                fn(self.RT, 99)

    def test_net_seqno_steps_down_for_invalid_routes(self):
        assert net_seqno(self.RT, 2) == 3
        assert net_seqno(self.RT, 3) == 0   # one below, floored at zero
        rt = self.RT.set(4, rte(dsn=5, flag=INVALID))
        assert net_seqno(rt, 4) == 4

    def test_strictly_fresher_orders_by_seqno_then_hops(self):
        a = FrozenMap({8: rte(dsn=1, hops=3)})
        b = FrozenMap({8: rte(dsn=2, hops=3)})
        assert strictly_fresher(a, b, 8)
        assert not strictly_fresher(b, a, 8)
        c = FrozenMap({8: rte(dsn=1, hops=2)})
        assert strictly_fresher(a, c, 8)    # same seqno, farther away
        assert not strictly_fresher(c, a, 8)
        assert not strictly_fresher(a, a, 8)

    def test_strictly_fresher_requires_both_entries(self):
        a = FrozenMap({8: rte()})
        with pytest.raises(ValueError):
            strictly_fresher(a, EMPTY_MAP, 8)
        with pytest.raises(ValueError):
            strictly_fresher(EMPTY_MAP, a, 8)


def update_oracle(rt, dip, new):
    """The five update cases, written as a flat decision list."""
    old = rt.get(dip)
    merged = lambda e, o: e.__class__(**{**vars(e), "pre": e.pre | o.pre}) \
        if hasattr(e, "pre") else e
    if old is None:
        return rt.set(dip, new)
    if old.dsn < new.dsn:
        return rt.set(dip, merged(new, old))
    if old.dsn == new.dsn and (old.hops > new.hops or old.flag == INVALID):
        return rt.set(dip, merged(new, old))
    if new.dsk == UNKNOWN:
        kept = new.__class__(**{**vars(new), "dsn": old.dsn, "dsk": old.dsk})
        return rt.set(dip, merged(kept, old))
    return rt.set(dip, merged(old, new))


def entry_domain(cls):
    """Every entry over small field domains (the criterion-5 grid)."""
    pres = [frozenset(), frozenset([7])] if cls is RouteEntry else [None]
    for dsn, dsk, flag, hops, nhip, pre in itertools.product(
            (0, 1, 2), (KNOWN, UNKNOWN), (VALID, INVALID), (1, 2, 3),
            (5, 6), pres):
        if cls is RouteEntry:
            yield cls(dsn, dsk, flag, hops, nhip, pre)
        else:
            yield cls(dsn, dsk, flag, hops, nhip)


class TestUpdate:
    def test_insert_when_unknown(self):
        e = rte(dsn=1, dsk=KNOWN)
        assert update_route(EMPTY_MAP, 4, e) == FrozenMap({4: e})

    def test_newer_seqno_wins_and_unions_precursors(self):
        rt = FrozenMap({4: rte(dsn=1, pre={7})})
        out = update_route(rt, 4, rte(dsn=2, dsk=KNOWN, hops=9, pre={8}))
        assert out[4].dsn == 2 and out[4].hops == 9
        assert out[4].pre == frozenset([7, 8])

    def test_same_seqno_needs_shorter_or_repair(self):
        rt = FrozenMap({4: rte(dsn=2, dsk=KNOWN, hops=2)})
        kept = update_route(rt, 4, rte(dsn=2, dsk=KNOWN, hops=2, nhip=6))
        assert kept[4].nhip == 9  # equal route does not displace
        shorter = update_route(rt, 4, rte(dsn=2, dsk=KNOWN, hops=1, nhip=6))
        assert shorter[4].nhip == 6
        broken = FrozenMap({4: rte(dsn=2, dsk=KNOWN, hops=2, flag=INVALID)})
        repaired = update_route(broken, 4, rte(dsn=2, dsk=KNOWN, hops=5))
        assert repaired[4].flag == VALID

    def test_unknown_seqno_keeps_the_old_numbering(self):
        rt = FrozenMap({4: rte(dsn=3, dsk=KNOWN, hops=1)})
        out = update_route(rt, 4, rte(dsn=0, dsk=UNKNOWN, hops=1, nhip=6))
        assert out[4].dsn == 3 and out[4].dsk == KNOWN
        assert out[4].nhip == 6  # fresh hop data still installed

    def test_stale_update_only_refreshes_precursors(self):
        rt = FrozenMap({4: rte(dsn=3, dsk=KNOWN, hops=1, pre={7})})
        out = update_route(rt, 4, rte(dsn=1, dsk=KNOWN, hops=9, pre={8}))
        assert out[4].dsn == 3 and out[4].hops == 1
        assert out[4].pre == frozenset([7, 8])

    @pytest.mark.parametrize("cls", [RouteEntry, SlimRouteEntry])
    def test_exhaustive_against_oracle(self, cls):
        entries = list(entry_domain(cls))
        for old in entries:
            rt = FrozenMap({4: old})
            for new in entries:
                assert update_route(rt, 4, new) == update_oracle(rt, 4, new), \
                    f"old={old} new={new}"

    def test_mutant_accepts_stale_numbering(self):
        rt = FrozenMap({4: rte(dsn=3, dsk=KNOWN, hops=1)})
        stale = rte(dsn=1, dsk=KNOWN, hops=9, nhip=6)
        out = update_route(rt, 4, stale, accept_stale=True)
        assert out[4].dsn == 1 and out[4].nhip == 6


class TestInvalidateAndPrecursors:
    def test_invalidate_copies_reported_seqnos(self):
        rt = FrozenMap({4: rte(dsn=1, dsk=KNOWN), 5: rte(dsn=2, dsk=KNOWN)})
        out = invalidate_routes(rt, FrozenMap({4: 7, 9: 3}))
        assert out[4].flag == INVALID and out[4].dsn == 7
        assert out[4].dsk == KNOWN and out[4].hops == rt[4].hops
        assert out[5] == rt[5]
        assert 9 not in out

    def test_add_precursors_is_partial(self):
        rt = FrozenMap({4: rte(pre={7})})
        out = add_precursors(rt, 4, frozenset([8, 9]))
        assert out[4].pre == frozenset([7, 8, 9])
        with pytest.raises(KeyError):
            add_precursors(rt, 5, frozenset([8]))

    def test_fresh_rreq_id_moves_past_every_own_request(self):
        assert fresh_rreq_id(frozenset(), 1) == 1
        used = frozenset([(1, 1), (1, 3), (2, 9)])
        assert fresh_rreq_id(used, 1) == 4
        assert fresh_rreq_id(used, 3) == 1


class TestStore:
    def test_enqueue_starts_a_requested_slot(self):
        st = enqueue_datum(EMPTY_MAP, 4, "d1")
        assert st[4] == StoreSlot(REQUESTED, ("d1",))
        st = enqueue_datum(st, 4, "d2")
        assert st[4].queue == ("d1", "d2")
        assert queued_dests(st) == frozenset([4])

    def test_head_and_dequeue(self):
        st = enqueue_datum(enqueue_datum(EMPTY_MAP, 4, "d1"), 4, "d2")
        assert head_datum(st, 4) == "d1"
        st = dequeue_datum(st, 4)
        assert head_datum(st, 4) == "d2"
        st = dequeue_datum(st, 4)
        assert 4 not in st  # empty slots vanish

    def test_request_flag_round_trip(self):
        st = enqueue_datum(EMPTY_MAP, 4, "d1")
        st = mark_no_request(st, 4)
        assert st[4].flag == NOT_REQUESTED
        st = mark_requested(st, [4, 5])  # 5 has no slot and is skipped
        assert st[4].flag == REQUESTED and 5 not in st
        with pytest.raises(KeyError):
            mark_no_request(EMPTY_MAP, 4)


class TestLocalState:
    def test_init_is_cleared_with_fresh_seqno(self):
        d = aodv_init(5)
        assert d.ip == 5 and d.sn == 1
        assert d.rt == EMPTY_MAP and d.store == EMPTY_MAP
        assert d.rreqs == frozenset()
        assert d.sip == 6  # parked off every real address

    def test_clear_locals_resets_only_the_scratch_fields(self):
        d = aodv_init(5)
        d2 = replace(d, msg="x", dip=7, hops=3, sn=4,
                     rt=FrozenMap({2: rte()}))
        d3 = clear_locals(d2)
        assert d3.msg is None and d3.dip == 0 and d3.hops == 0
        assert d3.sn == 4 and d3.rt == d2.rt
        assert clear_locals(d3) == d3


class TestProcessTable:
    def test_label_counts_per_process(self):
        table = build_table(BASE)
        per = {}
        for l in table.all_labels():
            per[l.pname] = per.get(l.pname, 0) + 1
        assert per == {"aodv": 23, "newpkt": 5, "pkt": 15,
                       "rreq": 27, "rrep": 16, "rerr": 5}

    def test_labels_are_contiguous_from_zero(self):
        table = build_table(BASE)
        by_name = {}
        for l in table.all_labels():
            by_name.setdefault(l.pname, set()).add(l.offset)
        for name, offs in by_name.items():
            assert offs == set(range(len(offs))), name

    def test_queue_process_has_its_own_two_locations(self):
        qt = queue_table()
        assert sorted(l.offset for l in qt.all_labels()) == [0, 1]


class TestTableMemo:
    """``build_table`` builds one table per configuration value."""

    def test_equal_configs_give_one_table(self):
        table = build_table(BASE)
        assert build_table() is table
        assert build_table(cfg=BASE) is table
        assert build_table(VariantConfig()) is table
        assert build_table(replace(BASE)) is table

    def test_each_config_gets_its_own_table(self):
        cfgs = [*VARIANTS.values(),
                apply_mutations(BASE, ["accept-stale-update"])]
        tables = [build_table(cfg) for cfg in cfgs]
        assert len({id(t) for t in tables}) == len(cfgs)
        for cfg, table in zip(cfgs, tables):
            assert build_table(cfg) is table

    def test_automata_share_the_table_not_their_memos(self, monkeypatch):
        # Two networks over one table have their own automata and their
        # own subnet memo and states; a node's memo and states are the
        # table's, kept per address, so one network's search fills the
        # other's nodes' too.  The tables are new, so that they start
        # empty.
        fresh_tables(monkeypatch)
        pair = [(1, [2]), (2, [1])]
        a, b = closed_net(pair, BASE), closed_net(pair, BASE)
        table = build_table(BASE)
        for auto in (a, b):
            for node in (auto.net.left, auto.net.right):
                assert node.inner.left.table is table
        memos = lambda auto: [(m._steps_memo, m._states) for m in
                              (auto.net, auto.net.left, auto.net.right)]
        ((sa, na), *nodes_a), ((sb, nb), *nodes_b) = memos(a), memos(b)
        assert sa is not sb and na is not nb
        assert a.net.left is not b.net.left
        for x, y in zip(nodes_a, nodes_b):
            assert x[0] is y[0] and x[1] is y[1] and not y[0]
        before = (len(sb), len(nb))
        explore(EnvNet(a, env_menu([(1, "x", 2, 1)], [])), bound=6)
        assert all(s and n for s, n in nodes_b)
        assert (len(sb), len(nb)) == before

    def test_repeated_runs_do_not_grow_the_label_memo(self):
        # the memos are keyed by term identity, so a run must start its
        # processes at the table's own terms, not at fresh ones
        pair = [(1, [2]), (2, [1])]
        sched = Schedule(events=FrozenMap({0: NewpktA(1, "x", 2)}))
        tables = (build_table(BASE), queue_table())
        run(pair, sched)
        sizes = [(len(t._label_cache), len(t._loc_cache)) for t in tables]
        for _ in range(3):
            run(pair, sched)
        assert [(len(t._label_cache), len(t._loc_cache))
                for t in tables] == sizes


def _tree(t):
    """Class names, labels and children of a term, in order; calls by name."""
    if isinstance(t, Call):
        return ["Call", t.name]
    if isinstance(t, Choice):
        return ["Choice", _tree(t.left), _tree(t.right)]
    kids = (t.ok, t.fail) if isinstance(t, Unicast) else (t.cont,)
    return [type(t).__name__, str(t.label), *map(_tree, kids)]


class TestTablePin:
    # Control locations are numbered by position in the term tree, and
    # they feed state encodings, the simulator's draw order and the
    # dispatch-msg witnesses.  The hash covers every body of every
    # variant's table, of the stale-accepting mutation's and of the
    # queue's; a rewrite of the process builders that moves, adds or
    # drops a prefix anywhere changes it.
    TABLES_SHA256 = (
        "51554e8a2ec341e15c07738404e0ccd64a50d448322fcb5224eacf8424d0b255")

    def test_labelled_term_trees_are_pinned(self):
        tables = [(n, build_table(VARIANTS[n])) for n in sorted(VARIANTS)]
        tables.append(("accept-stale-update", build_table(
            apply_mutations(BASE, ["accept-stale-update"]))))
        tables.append(("queue", queue_table()))
        doc = [[tag, name, _tree(table[name])]
               for tag, table in tables for name in table.names()]
        h = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert h == self.TABLES_SHA256
