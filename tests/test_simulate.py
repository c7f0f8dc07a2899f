"""Seeded simulation runs, schedules, and the trace file format."""
import hashlib
import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from aodvcheck import protocol, simulate
from aodvcheck.awn import (EMPTY_MENU, ConnectA, DisconnectA, NewpktA,
                           RichStep, TAU)
from aodvcheck.canon import EMPTY_MAP, FrozenMap, bdigest, value_key
from aodvcheck.explore import EnvNet, explore
from aodvcheck.messages import Rreq
from aodvcheck.simulate import Schedule, ScheduleError, run, sibling_order
from aodvcheck.network import closed_net
from aodvcheck.protocol import BASE
from aodvcheck.scenario import load_scenario, parse_scenario
from aodvcheck.trace import (TRACE_FORMAT, dump_record, load_trace,
                             render_action, write_trace)
from aodvcheck.variants import VARIANTS, apply_mutations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIR = [(1, [2]), (2, [1])]
CHAIN = [(1, [2]), (2, [1, 3]), (3, [2])]


def pair_schedule(seed=0, max_steps=120):
    return Schedule(seed, max_steps, FrozenMap({0: NewpktA(1, "x", 2),
                                                1: NewpktA(2, "y", 1)}))


def trace_bytes(result) -> str:
    return "\n".join(dump_record(r) for r in result.records)


PAIR_NODES = [{"ip": 1, "nbrs": [2]}, {"ip": 2, "nbrs": [1]}]


class TestScheduleBuilder:
    # the scenario loader is the one place that reads event spellings
    def test_specs_parse_to_actions(self):
        sched = parse_scenario({"nodes": PAIR_NODES, "schedule": {"events": {
            "0": ["newpkt", 1, "x", 2], "3": ["disconnect", 1, 2],
            "5": ["connect", 1, 2]}}}).sched
        assert sched.events == {0: NewpktA(1, "x", 2),
                                3: DisconnectA(1, 2), 5: ConnectA(1, 2)}

    def test_action_objects_pass_through(self):
        # steps 0 and 1 are quiescent, so the run jumps to the event
        sched = Schedule(events=FrozenMap({2: NewpktA(1, "x", 2)}))
        (first, r), *_ = run(PAIR, sched).path
        assert (first, r.detail) == (2, NewpktA(1, "x", 2))

    def test_defaults(self):
        for section in ({}, {"events": None}):
            sched = parse_scenario({"nodes": PAIR_NODES,
                                    "schedule": section}).sched
            assert sched == Schedule() == Schedule(0, 200, EMPTY_MAP)
            assert not len(sched.events)

    def test_bundled_scenarios_load_as_actions(self):
        events = {0: NewpktA(1, "d", 3), 2: NewpktA(2, "d", 3),
                  4: NewpktA(3, "d", 1), 40: DisconnectA(1, 2),
                  80: ConnectA(1, 2)}
        stale = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                           "chain3_stale.json"))
        assert stale.sched == Schedule(0, 400, FrozenMap(events))
        chain3 = load_scenario(os.path.join(ROOT, "scenarios", "chain3.json"))
        assert chain3.sched == stale.sched
        assert chain3.env.links == (DisconnectA(1, 2), ConnectA(1, 2))


class TestDeterminism:
    def test_same_seed_gives_identical_bytes(self):
        a = run(PAIR, pair_schedule(seed=0))
        b = run(PAIR, pair_schedule(seed=0))
        assert trace_bytes(a) == trace_bytes(b)
        assert a.holds and b.holds

    def test_seeds_actually_matter(self):
        a = run(PAIR, pair_schedule(seed=0))
        b = run(PAIR, pair_schedule(seed=1))
        assert trace_bytes(a) != trace_bytes(b)

    def test_shared_table_changes_no_run(self, monkeypatch):
        # runs of one config share its table; each run built on a table
        # of its own must come out the same
        sc = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                        "chain3_stale.json"))

        def outcomes():
            out = []
            for seed in range(20):
                sched = Schedule(seed, sc.sched.max_steps, sc.sched.events)
                r = run(sc.tree, sched, sc.cfg, suites=sc.suites)
                out.append((r.stop, r.steps, r.records))
            return out

        shared = outcomes()
        tables = []

        def fresh_table(cfg=BASE):
            tables.append(protocol._labelled_table.__wrapped__(cfg))
            return tables[-1]

        monkeypatch.setattr(simulate, "build_table", fresh_table)
        assert outcomes() == shared
        assert len({id(t) for t in tables}) == 20
        assert any(stop == "violation" for stop, _, _ in shared)


class TestDrawOrder:
    # Which step a seed draws depends on how the simulator orders each
    # sibling set.  The hash covers every (step, origin, action) record
    # of seeds 0-9 on chain3 under each variant and under the
    # stale-accepting mutation; an encoding change that reorders the
    # siblings of any drawn step changes it.
    DRAWS_SHA256 = (
        "6573ad9fb63f5a0d6755ba9f30c1b77e26536dea9b7caa9f3b96ad6cc0cabd84")

    def test_chain3_draw_order_is_pinned(self):
        sc = load_scenario(os.path.join(ROOT, "scenarios", "chain3.json"))
        cfgs = [VARIANTS[n] for n in sorted(VARIANTS)]
        cfgs.append(apply_mutations(BASE, ["accept-stale-update"]))
        h = hashlib.sha256()
        for cfg in cfgs:
            for seed in range(10):
                sched = Schedule(seed, sc.sched.max_steps, sc.sched.events)
                for rec in run(sc.tree, sched, cfg).records:
                    if "action" in rec:
                        row = [rec["step"], rec["origin"], rec["action"]]
                        h.update(json.dumps(row).encode() + b"\n")
        assert h.hexdigest() == self.DRAWS_SHA256


def assert_one_sort_order(steps, got):
    """``got`` is ``steps`` in one sort by the step's key, then the target's."""
    want = sorted(steps, key=lambda r: (r.canon_key(), value_key(r.target)))
    assert list(map(id, got)) == list(map(id, want))


def sibling_sets(name, bound=None):
    """Every sibling set the simulator can sort on a scenario's states.

    For each state the explorer reaches, the closed network's steps
    under the environment's menu, under no menu, and under the menu of
    each event of the scenario's schedule.
    """
    sc = load_scenario(os.path.join(ROOT, "scenarios", name))
    auto = EnvNet(closed_net(sc.tree, sc.cfg), sc.env)
    rep = explore(auto, bound=bound, keep_states=True)
    assert bound is not None or rep.complete
    menus = [EMPTY_MENU]
    if sc.sched is not None:
        menus += [simulate._event_menu(ev)
                  for _, ev in sorted(sc.sched.events.items())]
    closed = auto.net
    for net_s, env_s in rep.state_index.values():
        yield closed.rich_steps(net_s, auto.menu_for(env_s))
        for menu in menus:
            yield closed.rich_steps(net_s, menu)


def tied(steps) -> set:
    """The ids of the steps whose own key another step shares."""
    seen: dict = {}
    for r in steps:
        seen.setdefault(r.canon_key(), []).append(id(r))
    return {i for ids in seen.values() if len(ids) > 1 for i in ids}


class TestSiblingOrder:
    @pytest.mark.parametrize("name,bound", [("pair2.json", None),
                                            ("fig1.json", None),
                                            ("chain3.json", 8)])
    def test_equals_one_sort_by_key_and_target(self, name, bound):
        for steps in sibling_sets(name, bound):
            assert_one_sort_order(steps, sibling_order(steps))

    def test_simulator_draws_in_the_one_sort_order(self, monkeypatch):
        # chain3 has no tied siblings within depth 16; its simulated runs
        # go deeper and meet them
        ties = []

        def checked(steps):
            got = sibling_order(steps)
            assert_one_sort_order(steps, got)
            ties.append(len(tied(steps)))
            return got

        monkeypatch.setattr(simulate, "sibling_order", checked)
        sc = load_scenario(os.path.join(ROOT, "scenarios", "chain3.json"))
        for seed in range(3):
            run(sc.tree, Schedule(seed, 200, sc.sched.events), sc.cfg)
        assert any(ties) and not all(ties)

    @given(st.lists(st.tuples(st.sampled_from([None, 1, 2]),
                              st.integers(0, 2),
                              st.one_of(st.integers(0, 3),
                                        st.text("ab", max_size=2))),
                    max_size=12))
    def test_equals_one_sort_on_drawn_records(self, rows):
        steps = [RichStep(*row) for row in rows]
        assert_one_sort_order(steps, sibling_order(steps))

    def test_keys_only_the_targets_of_tied_steps(self, monkeypatch):
        keyed = []
        real = simulate.value_key

        def counting(x):
            keyed.append(id(x))
            return real(x)

        monkeypatch.setattr(simulate, "value_key", counting)
        unique = tied_steps = 0
        for steps in sibling_sets("pair2.json"):
            keyed.clear()
            sibling_order(steps)
            ties = tied(steps)
            assert sorted(keyed) == sorted(id(r.target) for r in steps
                                           if id(r) in ties)
            unique += len(steps) - len(ties)
            tied_steps += len(ties)
        assert unique > 0 and tied_steps > 0


class TestRunOutcomes:
    def test_quiescent_run_delivers_payload(self):
        res = run(PAIR, pair_schedule())
        assert res.stop == "quiescent"
        assert res.holds
        assert any(ip == 2 and data == "x" for _, ip, data in res.delivered)
        assert any(ip == 1 and data == "y" for _, ip, data in res.delivered)

    def test_final_record_matches_result(self):
        res = run(PAIR, pair_schedule())
        last = res.records[-1]
        assert last["final"] == bdigest(res.final_state).hex()
        assert last["stop"] == "quiescent"
        assert last["holds"] is True
        assert last["delivered"] == [list(d) for d in res.delivered]

    def test_header_record(self):
        res = run(PAIR, pair_schedule(seed=3), scenario_name="pair")
        head = res.records[0]
        assert head["format"] == TRACE_FORMAT
        assert head["kind"] == "simulate"
        assert head["scenario"] == "pair"
        assert head["variant"] == "base"
        assert head["mutations"] == []
        assert head["seed"] == 3
        assert head["nodes"] == [[1, [2]], [2, [1]]]
        assert "loop-freedom" in head["suites"]

    def test_quiescence_fast_forwards_to_next_event(self):
        sched = Schedule(0, 600, FrozenMap({0: NewpktA(1, "x", 2),
                                            500: DisconnectA(1, 2)}))
        res = run(PAIR, sched)
        assert res.stop == "quiescent"
        assert res.pending_events == ()
        assert any(r.get("action") == "disconnect(1, 2)"
                   for r in res.records if "action" in r)

    def test_max_steps_reports_pending_events(self):
        sched = Schedule(0, 3, FrozenMap({0: NewpktA(1, "x", 2),
                                          100: DisconnectA(1, 2)}))
        res = run(PAIR, sched)
        assert res.stop == "max-steps"
        assert res.steps == 3
        assert res.pending_events == ((100, DisconnectA(1, 2)),)

    def test_impossible_event_raises(self):
        sched = Schedule(events=FrozenMap({0: NewpktA(9, "x", 1)}))
        with pytest.raises(ScheduleError, match="cannot fire at step 0"):
            run(PAIR, sched)

    def test_suite_selection(self):
        res = run(PAIR, pair_schedule(), suites=["loop-freedom"])
        assert res.records[0]["suites"] == ["loop-freedom"]
        assert res.holds


class TestLazyRecords:
    # A run keeps its walked path; the trace is built from it on the
    # first read of ``records``, and only then are states digested.
    def counting(self, monkeypatch, name):
        calls = []
        real = getattr(simulate, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simulate, name, counted)
        return calls

    def test_run_digests_nothing_per_step(self, monkeypatch):
        digests = self.counting(monkeypatch, "bdigest")
        rendered = self.counting(monkeypatch, "render_action")
        res = run(PAIR, pair_schedule())
        assert res.steps == len(res.path) > 0
        assert digests == [] and rendered == []
        records = res.records
        assert len(digests) == len(res.path) + 1
        assert len(rendered) == len(res.path)
        digests.clear()
        rendered.clear()
        assert res.records is records
        assert digests == [] and rendered == []

    def test_path_holds_the_executed_steps(self):
        res = run(PAIR, pair_schedule())
        steps = [r for r in res.records if "action" in r]
        assert [(rec["step"], rec["origin"], rec["action"],
                 rec["digest"]) for rec in steps] == [
            (i, r.origin, render_action(r.detail), bdigest(r.target).hex())
            for i, r in res.path]
        assert res.path[-1][1].target is res.final_state

    def test_failing_initial_state_ends_at_its_violation(self, monkeypatch):
        real = simulate.state_checks
        monkeypatch.setattr(simulate, "state_checks", lambda table, names: [
            ("always", lambda s: (0,))] + real(table, names))
        res = run(PAIR, pair_schedule(), dump_sigma=True)
        assert res.stop == "violation" and res.path == []
        assert res.records[1:] == [{"violation": {
            "suite": "always", "kind": "state", "witness": [0],
            "step": -1}}]


class TestViolationStop:
    # under the stale-accepting update, this seed walks node 2 into
    # advertising destination 3 with a regressed net sequence number
    def broken_run(self, **kw):
        cfg = replace(BASE, accept_stale_update=True)
        sched = Schedule(4, 400, FrozenMap({0: NewpktA(1, "d", 3),
                                            1: NewpktA(3, "d", 1),
                                            40: DisconnectA(1, 2),
                                            80: ConnectA(1, 2)}))
        return run(CHAIN, sched, cfg, **kw)

    def test_violation_recorded_and_stops(self):
        res = self.broken_run()
        assert not res.holds
        assert res.stop == "violation"
        assert res.verdict.suite == "nsqn-monotone"
        assert res.verdict.witness == (2, 3, 2, 0)
        vio = [r for r in res.records if "violation" in r]
        assert len(vio) == 1
        assert vio[0]["violation"]["suite"] == "nsqn-monotone"
        assert res.records[-1]["holds"] is False

    def test_same_schedule_is_clean_without_the_mutation(self):
        sched = Schedule(4, 400, FrozenMap({0: NewpktA(1, "d", 3),
                                            1: NewpktA(3, "d", 1),
                                            40: DisconnectA(1, 2),
                                            80: ConnectA(1, 2)}))
        res = run(CHAIN, sched, BASE)
        assert res.holds and res.stop == "quiescent"


class TestSigmaDump:
    def test_step_records_carry_tables(self):
        res = run(PAIR, pair_schedule(max_steps=30), dump_sigma=True)
        steps = [r for r in res.records if "action" in r]
        assert steps
        for rec in steps:
            assert set(rec["sigma"]) == {"1", "2"}
            assert "sn" in rec["sigma"]["1"]
        assert "sigma" in res.records[-1]

    def test_sigma_rt_rows_are_plain_json(self):
        res = run(PAIR, pair_schedule(), dump_sigma=True)
        final_rt = res.records[-1]["sigma"]["1"]["rt"]
        assert final_rt["2"]["flag"] == "val"
        assert isinstance(final_rt["2"]["hops"], int)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        res = run(PAIR, pair_schedule(), dump_sigma=True)
        path = tmp_path / "t.ndjson"
        write_trace(path, res.records)
        assert load_trace(path) == res.records

    def test_records_are_single_lines(self, tmp_path):
        res = run(PAIR, pair_schedule())
        path = tmp_path / "t.ndjson"
        write_trace(path, res.records)
        lines = path.read_text().splitlines()
        assert len(lines) == len(res.records)

    def test_digest_is_hex(self):
        res = run(PAIR, pair_schedule())
        step = next(r for r in res.records if "digest" in r)
        assert len(step["digest"]) == 32
        int(step["digest"], 16)


class TestRenderAction:
    def test_common_shapes(self):
        assert render_action(TAU) == "tau"
        assert render_action(NewpktA(1, "x", 2)) == "newpkt(1, 'x', 2)"
        assert render_action(ConnectA(1, 2)) == "connect(1, 2)"
        assert render_action(DisconnectA(2, 3)) == "disconnect(2, 3)"

    def test_messages_are_embedded(self):
        from aodvcheck.awn import CastA
        msg = Rreq(0, 1, 2, 0, "unk", 1, 1, 1)
        text = render_action(CastA(frozenset([2]), msg))
        assert text.startswith("cast([2], ")
        assert "Rreq" in text

    def test_unknown_action_rejected(self):
        with pytest.raises(TypeError):
            render_action(object())
