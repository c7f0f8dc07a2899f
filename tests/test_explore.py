"""Exploration engine: oracle comparison, determinism, caps, replay.

The oracle is a plain dictionary-based breadth-first search keyed by
full canonical keys; the engine under test keeps only keys packed from
run-local subtree numbers and, per state number, a parent number and a
branch rank, so agreement here exercises the whole compression scheme.
"""
import importlib
import os
from dataclasses import replace as dc_replace

import pytest

from aodvcheck.awn import (TAU, CastA, ConnectA, DisconnectA, ModelError,
                           NewpktA, join_parts, part_maker, root_parts)
from aodvcheck.canon import FrozenMap, bdigest, digest, value_key
from aodvcheck.explore import (DEFAULT_STATE_CAP, Counterexample, EnvMenu,
                               EnvNet, EnvState, ResourceCapError,
                               check_theorem1, env_menu, explore, invariant,
                               reachable, replay, step_invariant)
from aodvcheck.messages import Newpkt
from aodvcheck.network import closed_net, net_data, node_states
from aodvcheck.protocol import BASE, build_table
from aodvcheck.scenario import load_scenario, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIR = [(1, [2]), (2, [1])]


def pair_net(env: EnvMenu) -> EnvNet:
    return EnvNet(closed_net(PAIR, BASE, build_table(BASE)), env)


def one_shot() -> EnvNet:
    return pair_net(env_menu(newpkts=[(1, "x", 2, 1)]))


def naive_bfs(auto):
    """Reference search: canonical keys, no digests, no rank replay."""
    seen = {value_key(s) for s in auto.init}
    frontier = sorted(auto.init, key=value_key)
    edges = 0
    depth = 0
    while frontier:
        nxt = []
        for s in frontier:
            for r in auto.rich_steps(s):
                edges += 1
                k = value_key(r.target)
                if k not in seen:
                    seen.add(k)
                    nxt.append(r.target)
        if nxt:
            depth += 1
        frontier = nxt
    return seen, edges, depth


class TestAgainstOracle:
    @pytest.mark.parametrize("newpkts,links", [
        ([(1, "x", 2, 1)], []),
        ([(1, "x", 2, 1)], [DisconnectA(1, 2)]),
        ([(1, "x", 2, 1), (2, "y", 1, 1)], []),
    ])
    def test_counts_match(self, newpkts, links):
        auto = pair_net(env_menu(newpkts=newpkts, links=links))
        keys, edges, depth = naive_bfs(auto)
        rep = explore(auto)
        assert rep.complete
        assert rep.states == len(keys)
        assert rep.transitions == edges
        assert rep.depth == depth

    def test_reachable_set_matches(self):
        auto = one_shot()
        keys, _, _ = naive_bfs(auto)
        states = reachable(auto)
        assert {value_key(s) for s in states} == keys
        assert set(auto.init) <= states


def scenario_net(name, table=None) -> EnvNet:
    sc = load_scenario(os.path.join(ROOT, "scenarios", name))
    return EnvNet(closed_net(sc.tree, sc.cfg, table), sc.env)


class TestStoreExactness:
    @pytest.mark.parametrize("name,states", [("pair2.json", 4339),
                                             ("fig1.json", 12938)])
    def test_keys_count_distinct_states(self, name, states):
        auto = scenario_net(name)
        rep = explore(auto, keep_states=True)
        assert rep.complete
        reached = rep.state_index.values()
        assert len({bdigest(s) for s in reached}) == rep.states == states
        assert len(reachable(auto)) == states

    def test_runs_do_not_share_numbers(self):
        # Later runs on one automaton meet the subtree objects, and the
        # numbers, that its tables gave out in earlier runs, here in the
        # order a shallower first run met them; the other automaton
        # shares the process table but numbers its own states.
        sc = load_scenario(os.path.join(ROOT, "scenarios", "chain3.json"))
        table = build_table(sc.cfg)
        auto = scenario_net("chain3.json", table)
        other = scenario_net("chain3.json", table)
        explore(auto, bound=8)
        runs = [explore(a, bound=10, keep_states=True)
                for a in (other, auto, auto)]
        counts = {(r.states, r.transitions, r.depth) for r in runs}
        assert len(counts) == 1
        reached = [set(r.state_index.values()) for r in runs]
        assert reached[1:] == reached[:1] * 2


class TestStepMemos:
    def test_inner_subnets_memoize_and_the_root_does_not(self):
        # chain3 is node 1 beside the subnet of nodes 2 and 3; each root
        # state is expanded once, while inner states repeat
        auto = scenario_net("chain3.json")
        root = auto.net.net
        inner = root.right
        calls = []
        steps = inner.rich_steps
        inner.rich_steps = lambda s, m: calls.append(1) or steps(s, m)
        explore(auto, bound=12)
        assert root._steps_memo == {}
        assert 0 < len(inner._steps_memo) < len(calls)


def oracle_env_steps(auto, state) -> list:
    """The explorer's records, rebuilt from the closed network's own.

    Takes the closed layer's records with its default builder and pairs
    each target with the environment reached through
    ``EnvNet._env_after``, one step after another.
    """
    net_s, env_s = state
    out = []
    for r in auto.net.rich_steps(net_s, auto.menu_for(env_s)):
        env2 = env_s
        if isinstance(r.detail, (NewpktA, ConnectA, DisconnectA)):
            env2 = auto._env_after(env_s, r.detail)
        out.append((r.origin, r.detail, (r.target, env2)))
    return out


class TestRootRecords:
    # pair2_links_stale to depth 58 is every state the command line's
    # run of it reaches before it stops at its first violation
    @pytest.mark.parametrize("path,bound,states", [
        ("bench/scenarios/pair2_links_stale.json", 58, 10829),
        ("scenarios/chain3.json", 8, 369),
    ])
    def test_records_match_the_closed_layer(self, path, bound, states):
        sc = load_scenario(os.path.join(ROOT, path))
        auto = EnvNet(closed_net(sc.tree, sc.cfg), sc.env)
        rep = explore(auto, bound=bound, keep_states=True)
        assert rep.states == states
        for state in rep.state_index.values():
            got = auto.rich_steps(state)
            want = oracle_env_steps(auto, state)
            assert len(got) == len(want)
            for r, w in zip(got, want):
                assert (r.origin, r.detail, r.target) == w
                assert r.target[1] is w[2][1]


# by full name: the package re-exports the function ``explore`` under the
# module's own name
explore_mod = importlib.import_module("aodvcheck.explore")


def stale_links_net() -> EnvNet:
    sc = load_scenario(os.path.join(
        ROOT, "bench", "scenarios", "pair2_links_stale.json"))
    return EnvNet(closed_net(sc.tree, sc.cfg), sc.env)


def one_node_net() -> EnvNet:
    # the root is a NodeS, one part, not a SubnetS
    return EnvNet(closed_net([(1, [])], BASE),
                  env_menu(newpkts=[(1, "x", 2, 1), (1, "y", 1, 1)]))


class TestPartsMatchRecords:
    """Successors handed over as parts against the built records."""

    @pytest.mark.parametrize("net,bound,states", [
        (lambda: scenario_net("chain3.json"), 8, 369),
        (lambda: scenario_net("fig1.json"), None, 12938),
        (stale_links_net, 58, 10829),
        (one_node_net, None, 89),
    ], ids=["chain3", "fig1", "pair2_links_stale", "one-node"])
    def test_parts_build_the_records_targets(self, net, bound, states):
        auto = net()
        rep = explore(auto, bound=bound, keep_states=True)
        assert rep.states == states
        key = explore_mod._key
        for state in rep.state_index.values():
            got = explore_mod._sorted_steps(auto, state,
                                            part_maker(auto.net))
            want = auto.rich_steps(state)
            assert [key(*r.target) for r in got] == \
                   [key(root_parts(w.target[0]), w.target[1]) for w in want]
            for r, w in zip(got, want):
                parts, env = r.target
                built = (join_parts(parts), env)
                assert built == w.target
                assert bdigest(built) == bdigest(w.target)
                assert env is w.target[1]
                assert (r.origin, r.detail) == (w.origin, w.detail)


class TestPendingCounterexamples:
    def stale(self):
        sc = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                        "pair2_links_stale.json"))
        return check_theorem1(sc.tree, sc.env, sc.cfg)

    def test_depth_needs_no_replay_and_steps_replay_once(self, monkeypatch):
        rebuilds = []
        rebuild = explore_mod._rebuild
        monkeypatch.setattr(explore_mod, "_rebuild",
                            lambda *a: rebuilds.append(1) or rebuild(*a))
        rep = self.stale()
        assert len(rep.counterexamples) == 4
        assert [c.depth for c in rep.counterexamples] == [58] * 4
        assert rebuilds == []
        cx = rep.counterexamples[0]
        assert len(cx.steps) == cx.depth
        assert cx.digest == cx.steps[-1].digest
        assert rebuilds == [1]

    def test_pending_equals_the_eager_form(self):
        for cx in self.stale().counterexamples:
            eager = Counterexample(cx.suite, cx.kind, cx.witness,
                                   cx.init_key, cx.steps, cx.digest)
            assert eager == cx and hash(eager) == hash(cx)
            assert repr(eager) == repr(cx)
            assert eager.depth == cx.depth

    def test_command_line_replays_only_what_it_writes(self, monkeypatch,
                                                      tmp_path, capsys):
        from aodvcheck.cli import EXIT_VIOLATION, main
        rebuilds = []
        rebuild = explore_mod._rebuild
        monkeypatch.setattr(explore_mod, "_rebuild",
                            lambda *a: rebuilds.append(1) or rebuild(*a))
        code = main(["explore", os.path.join(
            ROOT, "bench", "scenarios", "pair2_links_stale.json"),
            "--out", str(tmp_path / "cx.json")])
        assert "FAIL (4 counterexample(s))" in capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert rebuilds == [1]


class TestDeterminism:
    def test_reports_are_reproducible(self):
        a = explore(one_shot())
        b = explore(one_shot())
        assert (a.states, a.transitions, a.depth, a.complete) == \
               (b.states, b.transitions, b.depth, b.complete)

    def test_counterexample_traces_are_identical(self):
        pred = lambda s: 2 not in net_data(s)[1].rt
        a = invariant(one_shot(), pred)
        b = invariant(one_shot(), pred)
        (ca,), (cb,) = a.counterexamples, b.counterexamples
        assert ca == cb
        assert ca.digest == cb.digest
        assert [t.action for t in ca.steps] == [t.action for t in cb.steps]


class TestBounds:
    def test_bound_zero_keeps_initial_states_only(self):
        rep = explore(one_shot(), bound=0)
        assert rep.states == 1
        assert rep.depth == 0
        assert not rep.complete

    def test_states_grow_with_bound(self):
        counts = [explore(one_shot(), bound=b).states for b in (0, 2, 5, 9)]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_large_bound_equals_unbounded(self):
        free = explore(one_shot())
        # the bound counts expansion layers, so proving quiescence
        # needs one layer more than the deepest state
        exact = explore(one_shot(), bound=free.depth)
        assert not exact.complete
        assert (exact.states, exact.transitions) == \
               (free.states, free.transitions)
        over = explore(one_shot(), bound=free.depth + 1)
        assert over.complete
        assert (over.states, over.transitions) == \
               (free.states, free.transitions)

    def test_depth_never_exceeds_bound(self):
        rep = explore(one_shot(), bound=3)
        assert rep.depth == 3
        assert not rep.complete

    def test_violation_in_the_bound_layer_is_reported(self):
        # the layer at the bound is numbered and checked, though it is
        # never expanded and so not kept as a frontier
        pred = lambda s: 2 not in net_data(s)[1].rt
        (free,) = invariant(one_shot(), pred).counterexamples
        d = free.depth
        assert d > 1
        rep = invariant(one_shot(), pred, bound=d)
        assert rep.depth == d and not rep.complete
        (cx,) = rep.counterexamples
        assert cx.depth == d
        end = replay(one_shot(), cx)
        assert digest(value_key(end)) == cx.digest == free.digest
        assert not pred(end[0])

    def test_layer_callback_sees_each_finished_layer(self):
        seen = []
        rep = check_theorem1(
            PAIR, env_menu(newpkts=[(1, "x", 2, 1)]), bound=12,
            on_layer=lambda r: seen.append((r.depth, r.states,
                                            r.transitions)))
        assert rep.depth == 12
        assert [d for d, _, _ in seen] == list(range(1, 13))
        for count in (1, 2):
            values = [row[count] for row in seen]
            assert values == sorted(values)
        assert seen[-1] == (rep.depth, rep.states, rep.transitions)

    def test_layer_callback_skips_the_empty_last_expansion(self):
        seen = []
        rep = explore(one_shot(), on_layer=lambda r: seen.append(r.depth))
        assert rep.complete
        assert seen == list(range(1, rep.depth + 1))


class TestStateCap:
    def test_cap_raises_with_partial_report(self):
        with pytest.raises(ResourceCapError, match="50 states"):
            explore(one_shot(), state_cap=50)

    def test_partial_report_contents(self):
        try:
            explore(one_shot(), state_cap=50)
        except ResourceCapError as e:
            rep = e.report
        assert rep.capped
        assert rep.states == 50
        assert not rep.complete

    def test_cap_in_the_bound_layer_keeps_earlier_violations(self):
        # one_shot's layers past depth 30 hold two states each, and from
        # depth 31 on each layer has violating states; the cap falls
        # between the two states of the bound layer
        pred = lambda s: 2 not in net_data(s)[1].rt
        found = []

        def probe(net):
            if pred(net):
                return None
            found.append(1)
            return ("found",)

        bound = 34
        below = explore(one_shot(), bound=bound - 1).states
        with pytest.raises(ResourceCapError) as caught:
            explore(one_shot(), state_suites=[("probe", probe)],
                    bound=bound, state_cap=below + 1,
                    stop_on_violation=False)
        rep = caught.value.report
        assert rep.capped and rep.states == below + 1
        assert len(rep.counterexamples) == len(found) > 1
        assert max(cx.depth for cx in rep.counterexamples) == bound
        for cx in rep.counterexamples:
            end = replay(one_shot(), cx)
            assert digest(value_key(end)) == cx.digest
            assert not pred(end[0])

    def test_default_cap_is_ten_million(self):
        assert DEFAULT_STATE_CAP == 10_000_000


class TestInvariantDrivers:
    def test_true_invariant_holds(self):
        rep = invariant(one_shot(), lambda s: True)
        assert rep.holds and rep.complete

    def test_false_invariant_yields_replayable_counterexample(self):
        pred = lambda s: 2 not in net_data(s)[1].rt
        rep = invariant(one_shot(), pred)
        assert not rep.holds
        (cx,) = rep.counterexamples
        assert cx.kind == "state"
        assert cx.suite == "invariant"
        end = replay(one_shot(), cx)
        assert digest(value_key(end)) == cx.digest
        assert not pred(end[0])
        assert cx.depth == len(cx.steps)

    def test_counterexample_steps_are_branch_ranks(self):
        pred = lambda s: 2 not in net_data(s)[1].rt
        (cx,) = invariant(one_shot(), pred).counterexamples
        auto = one_shot()
        (state,) = auto.init
        for st in cx.steps:
            assert isinstance(st.key, int)
            state = auto.rich_steps(state)[st.key].target
            assert digest(value_key(state)) == st.digest

    @pytest.mark.parametrize("at", [0, -1])
    def test_replay_rejects_tampered_step_digest(self, at):
        pred = lambda s: 2 not in net_data(s)[1].rt
        (cx,) = invariant(one_shot(), pred).counterexamples
        steps = list(cx.steps)
        steps[at] = dc_replace(steps[at], digest="0" * 32)
        bad = dc_replace(cx, steps=tuple(steps))
        with pytest.raises(ModelError, match="does not replay at step"):
            replay(one_shot(), bad)

    def test_replay_rejects_rank_out_of_range(self):
        pred = lambda s: 2 not in net_data(s)[1].rt
        (cx,) = invariant(one_shot(), pred).counterexamples
        steps = (dc_replace(cx.steps[0], key=99),) + cx.steps[1:]
        with pytest.raises(ModelError, match="rank 99"):
            replay(one_shot(), dc_replace(cx, steps=steps))

    def test_step_invariant_sees_actions(self):
        pred = lambda s, a, t: not isinstance(a, NewpktA)
        rep = step_invariant(one_shot(), pred)
        assert not rep.holds
        (cx,) = rep.counterexamples
        assert cx.kind == "step"
        assert cx.steps[-1].action.startswith("newpkt")

    def test_step_invariant_shows_casts_as_tau(self):
        # a step's record keeps its cast, which the closed network shows
        # as Tau; both searches take the transitions in one order
        shown, details = [], []
        pred = lambda s, a, t: shown.append(a) or True
        assert step_invariant(one_shot(), pred).holds
        record = lambda net, r, after: details.append(r.detail)
        explore(one_shot(), step_suites=[("record", record)])
        assert any(isinstance(d, CastA) for d in details)
        assert shown == [TAU if isinstance(d, CastA) else d
                         for d in details]

    def test_violations_collected_without_early_stop(self):
        pred = lambda s: 2 not in net_data(s)[1].rt
        check = lambda s: None if pred(s) else ("found",)
        rep = explore(one_shot(), state_suites=[("probe", check)],
                      stop_on_violation=False)
        assert rep.complete
        assert len(rep.counterexamples) > 1


class TestEnvMenuBuilder:
    def test_budgets_merge(self):
        env = env_menu(newpkts=[(1, "x", 2, 1), (1, "x", 2, 2)])
        assert env.newpkts[(1, "x", 2)] == 3

    def test_zero_budget_rows_dropped(self):
        env = env_menu(newpkts=[(1, "x", 2, 0)])
        assert not len(env.newpkts)

    def test_link_events_parse(self):
        # the scenario loader is the one place that reads link spellings
        env = parse_scenario({
            "nodes": [{"ip": 1, "nbrs": [2]}, {"ip": 2, "nbrs": [1]}],
            "env": {"links": [["disconnect", 1, 2], ["connect", 1, 2]]}}).env
        assert env.links == (DisconnectA(1, 2), ConnectA(1, 2))

    def test_prebuilt_actions_accepted(self):
        env = env_menu(links=[ConnectA(1, 2)])
        assert env.links == (ConnectA(1, 2),)


class TestEnvThreading:
    def test_initial_env_state(self):
        auto = pair_net(env_menu(newpkts=[(1, "x", 2, 2)]))
        ((_, env0),) = auto.init
        assert env0.remaining[(1, "x", 2)] == 2
        assert env0.pos == 0

    def test_menu_offers_remaining_budget(self):
        auto = pair_net(env_menu(newpkts=[(1, "x", 2, 2)]))
        ((_, env0),) = auto.init
        menu = auto.menu_for(env0)
        assert menu.newpkts[1] == (Newpkt("x", 2),)
        assert menu.links == ()

    def test_budget_decrements_then_disappears(self):
        auto = pair_net(env_menu(newpkts=[(1, "x", 2, 2)]))
        (s0,) = auto.init

        def take_newpkt(state):
            steps = [r for r in auto.rich_steps(state)
                     if isinstance(r.detail, NewpktA)]
            assert len(steps) == 1
            return steps[0].target

        s1 = take_newpkt(s0)
        assert s1[1].remaining[(1, "x", 2)] == 1
        s2 = take_newpkt(s1)
        assert (1, "x", 2) not in s2[1].remaining
        assert not any(isinstance(r.detail, NewpktA)
                       for r in auto.rich_steps(s2))

    def test_link_script_runs_in_order(self):
        auto = pair_net(env_menu(links=[DisconnectA(1, 2), ConnectA(1, 2)]))
        (s0,) = auto.init
        kinds = [type(r.detail) for r in auto.rich_steps(s0)]
        assert kinds == [DisconnectA]

        (down,) = [r.target for r in auto.rich_steps(s0)]
        assert down[1].pos == 1
        assert node_states(down[0])[1].nbrs == frozenset()
        assert node_states(down[0])[2].nbrs == frozenset()

        kinds = [type(r.detail) for r in auto.rich_steps(down)]
        assert kinds == [ConnectA]
        (up,) = [r.target for r in auto.rich_steps(down)]
        assert up[1].pos == 2
        assert node_states(up[0])[1].nbrs == frozenset([2])
        assert auto.rich_steps(up) == ()

    def test_menus_are_cached(self):
        auto = one_shot()
        ((_, env0),) = auto.init
        assert auto.menu_for(env0) is auto.menu_for(env0)

    def test_env_states_offering_one_menu_share_it(self):
        # A budget of 2 and a budget of 1 offer the same injection.  Each
        # automaton projects both menus onto one object, on which its
        # step memo keys, so both meet one memo entry.
        auto = pair_net(env_menu(newpkts=[(1, "x", 2, 2)]))
        (s0,) = auto.init
        (r,) = [r for r in auto.rich_steps(s0)
                if isinstance(r.detail, NewpktA)]
        env0, env1 = s0[1], r.target[1]
        assert env0 != env1
        m0, m1 = auto.menu_for(env0), auto.menu_for(env1)
        assert (m0.newpkts, m0.links) == (m1.newpkts, m1.links)
        net, net_s = auto.net.net, s0[0]
        for node, state in ((net.left, net_s.left), (net.right, net_s.right)):
            assert node.rich_steps(state, m1) is node.rich_steps(state, m0)

    def test_equal_environments_are_one_object(self):
        # Injecting at 1 then 2, or at 2 then 1, uses up the same budget.
        auto = pair_net(env_menu(newpkts=[(1, "x", 2, 1), (2, "y", 1, 1)]))
        (s0,) = auto.init

        def inject(state, ip):
            (r,) = [r for r in auto.rich_steps(state)
                    if isinstance(r.detail, NewpktA) and r.detail.ip == ip]
            return r.target

        a = inject(inject(s0, 1), 2)
        b = inject(inject(s0, 2), 1)
        assert a[1] == b[1] == EnvState(FrozenMap(), 0)
        assert a[1] is b[1]

    def test_steps_share_one_object_per_environment_value(self):
        sc = load_scenario(os.path.join(ROOT, "scenarios", "chain3.json"))
        auto = EnvNet(closed_net(sc.tree, sc.cfg), sc.env)
        rep = explore(auto, bound=8, keep_states=True)
        envs = [r.target[1] for s in rep.state_index.values()
                for r in auto.rich_steps(s)]
        envs += [s[1] for s in rep.state_index.values()]
        assert len(set(envs)) > 2
        assert len({id(e) for e in envs}) == len(set(envs))


class TestTheorem1Driver:
    def test_clean_pair_passes_all_suites(self):
        rep = check_theorem1(PAIR, env_menu(newpkts=[(1, "x", 2, 1)]))
        assert rep.holds and rep.complete
        assert set(rep.suites) == {"hop-positivity", "quality",
                                   "loop-freedom", "dispatch-msg",
                                   "sn-monotone", "nsqn-monotone",
                                   "rerr-grounded"}

    def test_suite_selection_is_respected(self):
        rep = check_theorem1(PAIR, env_menu(newpkts=[(1, "x", 2, 1)]),
                             suites=["loop-freedom"])
        assert rep.suites == ("loop-freedom",)

    def test_replay_rejects_foreign_counterexample(self):
        pred = lambda s: 2 not in net_data(s)[1].rt
        rep = invariant(one_shot(), pred)
        (cx,) = rep.counterexamples
        other = pair_net(env_menu(newpkts=[(2, "y", 1, 1)]))
        with pytest.raises(ModelError):
            replay(other, cx)
