"""Safety suites and their graph machinery.

The cycle finder is compared against a brute-force walker on seeded
random functional graphs; the suites themselves are exercised on forged
states, since the protocol never produces violating ones.
"""
import os
import random
from dataclasses import replace

import pytest

from aodvcheck.awn import RichStep, TAU, CastA, join_parts, root_parts
from aodvcheck.canon import EMPTY_MAP, FrozenMap, value_key
from aodvcheck.explore import EnvNet, check_theorem1, env_menu, explore
from aodvcheck.messages import Rerr
from aodvcheck.monitor import (ALL_SUITES, RtGraph, SuiteError, Verdict,
                               check_state_invariants, check_step_invariants,
                               dispatch_locations, find_cycle, loop_free,
                               rt_graph, split_suites, state_checks,
                               step_checks)
from aodvcheck.network import (GlobalView, closed_net, net_data,
                               node_states, proc_state, tree_of)
from aodvcheck.protocol import BASE, aodv_init, build_table
from aodvcheck.routing import (INVALID, KNOWN, VALID, RouteEntry,
                               known_dests, net_seqno)
from aodvcheck.scenario import load_scenario
from aodvcheck.simulate import run, schedule

from helpers import forge_data, inject

EMPTY = frozenset()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rte(dsn=1, dsk=KNOWN, flag=VALID, hops=1, nhip=0, pre=EMPTY):
    return RouteEntry(dsn, dsk, flag, hops, nhip, pre)


def view(**tables):
    """GlobalView from ip -> {dip: entry} dicts."""
    data = {}
    for name, rt in tables.items():
        ip = int(name.lstrip("n"))
        data[ip] = replace(aodv_init(ip), rt=FrozenMap(rt))
    return GlobalView(data)


class TestRtGraph:
    def test_arcs_from_valid_entries_only(self):
        sigma = view(n1={3: rte(nhip=2)},
                     n2={3: rte(nhip=3, flag=INVALID)},
                     n3={})
        g = rt_graph(sigma, 3, (1, 2, 3))
        assert g == RtGraph(3, frozenset([(1, 2)]))

    def test_destination_itself_is_skipped(self):
        sigma = view(n1={1: rte(nhip=1)})
        assert rt_graph(sigma, 1, (1,)).arcs == EMPTY

    def test_unknown_destination_no_arc(self):
        sigma = view(n1={})
        assert rt_graph(sigma, 9, (1,)).arcs == EMPTY


def brute_force_has_cycle(succ: dict) -> bool:
    for start in succ:
        seen = set()
        node = start
        while node in succ:
            if node in seen:
                return True
            seen.add(node)
            node = succ[node]
    return False


class TestFindCycle:
    def test_empty_graph(self):
        assert find_cycle(RtGraph(0, EMPTY)) is None

    def test_chain_is_acyclic(self):
        g = RtGraph(9, frozenset([(1, 2), (2, 3), (3, 9)]))
        assert find_cycle(g) is None

    def test_two_cycle(self):
        g = RtGraph(9, frozenset([(1, 2), (2, 1)]))
        assert find_cycle(g) == (1, 2, 1)

    def test_self_loop(self):
        g = RtGraph(9, frozenset([(4, 4)]))
        assert find_cycle(g) == (4, 4)

    def test_tail_into_cycle(self):
        g = RtGraph(9, frozenset([(1, 2), (2, 3), (3, 2)]))
        assert find_cycle(g) == (2, 3, 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_on_random_functional_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        succ = {ip: rng.randrange(n)
                for ip in range(n) if rng.random() < 0.8}
        graph = RtGraph(99, frozenset(succ.items()))
        cycle = find_cycle(graph)
        assert (cycle is not None) == brute_force_has_cycle(succ)
        if cycle is not None:
            assert cycle[0] == cycle[-1]
            assert len(cycle) >= 2
            for a, b in zip(cycle, cycle[1:]):
                assert succ[a] == b

    def test_deterministic_start(self):
        # two disjoint cycles: report the one with the smallest entry
        g = RtGraph(9, frozenset([(5, 6), (6, 5), (1, 2), (2, 1)]))
        assert find_cycle(g) == (1, 2, 1)


class TestLoopFree:
    def test_clean_view(self):
        sigma = view(n1={2: rte(nhip=2)}, n2={})
        v = loop_free(sigma, (1, 2))
        assert v.holds and v.suite == "loop-freedom"

    def test_reports_destination_and_cycle(self):
        sigma = view(n1={3: rte(nhip=2)}, n2={3: rte(nhip=1)}, n3={})
        v = loop_free(sigma, (1, 2, 3))
        assert not v.holds
        assert v.witness == (3, 1, 2, 1)

    def test_failing_verdict_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(False, "loop-freedom")


def quiescent_pair():
    table = build_table(BASE)
    auto = closed_net(tree_of([(1, [2]), (2, [1])]), BASE, table)
    (init,) = auto.init
    return auto, table, init


class TestStateSuites:
    def test_initial_state_passes_everything(self):
        _, table, init = quiescent_pair()
        assert check_state_invariants(init, table).holds

    def test_hop_positivity_catches_zero_hops(self):
        _, table, init = quiescent_pair()
        bad = forge_data(init, 1, lambda d: replace(
            d, rt=d.rt.set(9, rte(hops=0, nhip=2))))
        v = check_state_invariants(bad, table, ["hop-positivity"])
        assert not v.holds
        assert v.suite == "hop-positivity"
        assert v.witness == (1, 9, 0)

    def test_quality_catches_equal_rank_next_hop(self):
        # node 1 routes to 3 via 2, but claims the same freshness and
        # hop count that 2 itself has: not strictly worse, so flagged
        _, table, init = quiescent_pair()
        bad = forge_data(init, 1, lambda d: replace(
            d, rt=d.rt.set(3, rte(dsn=2, hops=1, nhip=2))))
        bad = forge_data(bad, 2, lambda d: replace(
            d, rt=d.rt.set(3, rte(dsn=2, hops=1, nhip=3))))
        v = check_state_invariants(bad, table, ["quality"])
        assert not v.holds
        assert v.witness == (1, 3, 2, 2, 2, 1, 1)

    def test_quality_passes_strictly_improving_chain(self):
        _, table, init = quiescent_pair()
        good = forge_data(init, 1, lambda d: replace(
            d, rt=d.rt.set(3, rte(dsn=2, hops=2, nhip=2))))
        good = forge_data(good, 2, lambda d: replace(
            d, rt=d.rt.set(3, rte(dsn=2, hops=1, nhip=3))))
        assert check_state_invariants(good, table, ["quality"]).holds

    def test_loop_freedom_catches_mutual_next_hops(self):
        _, table, init = quiescent_pair()
        bad = forge_data(init, 1, lambda d: replace(
            d, rt=d.rt.set(7, rte(nhip=2))))
        bad = forge_data(bad, 2, lambda d: replace(
            d, rt=d.rt.set(7, rte(nhip=1))))
        v = check_state_invariants(bad, table, ["loop-freedom"])
        assert not v.holds
        assert v.witness == (7, 1, 2, 1)

    def test_first_failing_suite_wins(self):
        _, table, init = quiescent_pair()
        bad = forge_data(init, 1, lambda d: replace(
            d, rt=d.rt.set(7, rte(hops=0, nhip=2))))
        bad = forge_data(bad, 2, lambda d: replace(
            d, rt=d.rt.set(7, rte(nhip=1))))
        v = check_state_invariants(bad, table)
        assert v.suite == "hop-positivity"


class TestDispatchSuite:
    def drive_to_dispatch(self):
        """Inject a packet and step until node 1 is handling a message."""
        table = build_table(BASE)
        auto = closed_net(tree_of([(1, [])]), BASE, table)
        (init,) = auto.init
        locs = dispatch_locations(table)
        frontier = [inject(auto, init, 1, "x", 2)]
        seen = set()
        for _ in range(40):
            nxt = []
            for s in frontier:
                proc = proc_state(node_states(s)[1])
                if table.labels(proc.term) & locs:
                    return table, s
                for r in auto.rich_steps(s):
                    k = value_key(r.target)
                    if k not in seen:
                        seen.add(k)
                        nxt.append(r.target)
            frontier = nxt
        raise AssertionError("never reached a dispatch location")

    def test_locations_exist_inside_table(self):
        table = build_table(BASE)
        locs = dispatch_locations(table)
        assert locs
        assert locs <= table.all_labels()

    def test_handling_state_has_message(self):
        table, state = self.drive_to_dispatch()
        assert check_state_invariants(state, table, ["dispatch-msg"]).holds

    def test_forged_missing_message_is_flagged(self):
        table, state = self.drive_to_dispatch()
        bad = forge_data(state, 1, lambda d: replace(d, msg=None))
        v = check_state_invariants(bad, table, ["dispatch-msg"])
        assert not v.holds
        assert v.witness[0] == 1

    def test_table_without_receive_loop_rejected(self):
        from aodvcheck.awn import (Assign, Call, ProcessTable, label_process,
                                   seq)
        table = ProcessTable({"aodv": label_process(
            "aodv", seq(Assign(lambda d: d), Call("aodv")))})
        with pytest.raises(SuiteError):
            dispatch_locations(table)


def scan_dispatch_msg(state, table):
    """dispatch-msg as first written: every node, in address order."""
    locs = dispatch_locations(table)
    for ip, node in sorted(node_states(state).items()):
        proc = proc_state(node)
        here = table.labels(proc.term)
        if (here & locs) and proc.data.msg is None:
            return (ip, min(str(l) for l in here & locs))
    return None


class TestDispatchLifting:
    """The per-node verdicts, composed up the tree, against the scan."""

    @pytest.mark.parametrize("path", ["scenarios/fig1.json",
                                      "bench/scenarios/pair2_links_stale.json"])
    def test_matches_the_scan_on_every_reachable_state(self, path):
        sc = load_scenario(os.path.join(ROOT, path))
        table = build_table(sc.cfg)
        auto = EnvNet(closed_net(sc.tree, sc.cfg, table), sc.env)
        ((_, lifted),) = state_checks(table, ["dispatch-msg"])

        def compare(net):
            got, want = lifted(net), scan_dispatch_msg(net, table)
            return None if got == want else (got, want)

        rep = explore(auto, state_suites=[("compare", compare)])
        assert rep.complete and rep.holds

    def test_least_address_wins_over_the_left_child(self):
        # node 2 is the left child, node 1 the right; both handle a
        # message, and the forged state has lost both messages
        table = build_table(BASE)
        auto = EnvNet(closed_net(tree_of([(2, [1]), (1, [2])]), BASE, table),
                      env_menu(newpkts=[(1, "x", 2, 1), (2, "y", 1, 1)]))
        locs = dispatch_locations(table)
        rep = explore(auto, bound=6, keep_states=True)
        (both,) = [s for s, _ in rep.state_index.values()
                   if all(table.labels(proc_state(n).term) & locs
                          for n in node_states(s).values())]
        assert both.left.ip == 2
        bad = both
        for ip in (1, 2):
            bad = forge_data(bad, ip, lambda d: replace(d, msg=None))
        want = scan_dispatch_msg(bad, table)
        assert want[0] == 1
        v = check_state_invariants(bad, table, ["dispatch-msg"])
        assert v.witness == want


class TestSharedChangeList:
    """sn-monotone and nsqn-monotone share one change list per step."""

    NAMES = ["sn-monotone", "nsqn-monotone"]

    def stale(self):
        return load_scenario(os.path.join(
            ROOT, "bench", "scenarios", "pair2_links_stale.json"))

    def by_suite(self, rep, names):
        return {name: [(c.kind, c.witness, c.depth)
                       for c in rep.counterexamples if c.suite == name]
                for name in names}

    def explore_with(self, sc, names):
        rep = check_theorem1(sc.tree, sc.env, sc.cfg, suites=names,
                             bound=58, stop_on_violation=False)
        return self.by_suite(rep, names)

    def test_suites_alone_and_together_agree(self):
        sc = self.stale()
        selections = (self.NAMES[:1], self.NAMES[1:], self.NAMES)
        before = [self.explore_with(sc, names) for names in selections]
        run(sc.tree, schedule(seed=3, max_steps=200), sc.cfg,
            suites=self.NAMES)
        after = [self.explore_with(sc, names) for names in selections]
        assert after == before
        alone_sn, alone_nsqn, both = before
        assert both == {**alone_sn, **alone_nsqn}
        assert both["nsqn-monotone"]

        # each check with a change list of its own, made afresh per step
        table = build_table(sc.cfg)

        def unshared(name):
            def check(state, rich, target):
                ((_, fn),) = step_checks(table, [name])
                return fn(state, rich, target)
            return name, check

        auto = EnvNet(closed_net(sc.tree, sc.cfg, table), sc.env)
        rep = explore(auto, step_suites=[unshared(n) for n in self.NAMES],
                      bound=58, stop_on_violation=False)
        assert self.by_suite(rep, self.NAMES) == both


def fake_step(detail=TAU, origin=None):
    return RichStep(origin, detail, TAU, None)


class TestStepSuites:
    def test_sn_monotone_accepts_growth(self):
        _, table, init = quiescent_pair()
        grown = forge_data(init, 1, lambda d: replace(d, sn=d.sn + 3))
        triple = (init, fake_step(), grown)
        assert check_step_invariants(triple, table, ["sn-monotone"]).holds

    def test_sn_monotone_rejects_decrease(self):
        _, table, init = quiescent_pair()
        raised = forge_data(init, 1, lambda d: replace(d, sn=5))
        v = check_step_invariants((raised, fake_step(), init), table,
                                  ["sn-monotone"])
        assert not v.holds
        assert v.witness == (1, 5, 1)

    def test_nsqn_monotone_rejects_fresher_to_staler(self):
        _, table, init = quiescent_pair()
        fresh = forge_data(init, 2, lambda d: replace(
            d, rt=d.rt.set(5, rte(dsn=4, nhip=1))))
        stale = forge_data(init, 2, lambda d: replace(
            d, rt=d.rt.set(5, rte(dsn=2, nhip=1))))
        v = check_step_invariants((fresh, fake_step(), stale), table,
                                  ["nsqn-monotone"])
        assert not v.holds
        assert v.witness == (2, 5, 4, 2)

    def test_nsqn_monotone_allows_invalidation_discount(self):
        # invalidating with the same number drops nsqn by one; that is
        # explicitly allowed only when the number itself grows
        _, table, init = quiescent_pair()
        valid = forge_data(init, 2, lambda d: replace(
            d, rt=d.rt.set(5, rte(dsn=4, nhip=1))))
        invalidated = forge_data(init, 2, lambda d: replace(
            d, rt=d.rt.set(5, rte(dsn=5, flag=INVALID, nhip=1))))
        triple = (valid, fake_step(), invalidated)
        assert check_step_invariants(triple, table, ["nsqn-monotone"]).holds

    def test_rerr_must_name_a_destination(self):
        _, table, init = quiescent_pair()
        empty_rerr = CastA(frozenset([2]), Rerr(EMPTY_MAP, 1))
        rich = RichStep(1, empty_rerr, TAU, None)
        v = check_step_invariants((init, rich, init), table,
                                  ["rerr-grounded"])
        assert not v.holds
        assert v.witness == (1, (2,))

    def test_grounded_rerr_passes(self):
        _, table, init = quiescent_pair()
        rerr = CastA(frozenset([2]), Rerr(FrozenMap({5: 3}), 1))
        rich = RichStep(1, rerr, TAU, None)
        triple = (init, rich, init)
        assert check_step_invariants(triple, table, ["rerr-grounded"]).holds

    def test_unheard_rerr_not_flagged(self):
        _, table, init = quiescent_pair()
        rerr = CastA(EMPTY, Rerr(EMPTY_MAP, 1))
        rich = RichStep(1, rerr, TAU, None)
        triple = (init, rich, init)
        assert check_step_invariants(triple, table, ["rerr-grounded"]).holds


def scan_node_data(before, after):
    """sn-monotone and nsqn-monotone as first written: every node's data
    before against after, in address order."""
    b, a = net_data(before), net_data(after)
    sn = nsqn = None
    for ip in sorted(b):
        d0, d1 = b[ip], a[ip]
        if sn is None and d1.sn < d0.sn:
            sn = (ip, d0.sn, d1.sn)
        for dip in sorted(known_dests(d0.rt) & known_dests(d1.rt)):
            old, new = net_seqno(d0.rt, dip), net_seqno(d1.rt, dip)
            if nsqn is None and new < old:
                nsqn = (ip, dip, old, new)
    return [sn, nsqn]


class TestStepVerdictsAgree:
    """The node-data suites, lifted over the changed parts, against the
    scan."""

    NAMES = ["sn-monotone", "nsqn-monotone"]

    def test_every_transition_of_pair2_links_stale(self):
        # to depth 58, where the command line stops at its first violation
        sc = load_scenario(os.path.join(
            ROOT, "bench", "scenarios", "pair2_links_stale.json"))
        table = build_table(sc.cfg)
        lifted = step_checks(table, self.NAMES)
        verdicts = []

        def compare(net, rich, after):
            got = [check(net, rich, after) for _, check in lifted]
            want = scan_node_data(net, join_parts(after))
            verdicts.append(got)
            return None if got == want else (got, want)

        auto = EnvNet(closed_net(sc.tree, sc.cfg, table), sc.env)
        rep = explore(auto, step_suites=[("compare", compare)], bound=58,
                      stop_on_violation=False)
        assert rep.states == 10829
        assert rep.holds
        assert len(verdicts) == rep.transitions
        assert any(nsqn is not None for _, nsqn in verdicts)

    @pytest.mark.parametrize("path", ["scenarios/chain3.json",
                                      "scenarios/fig1.json"])
    def test_a_decrease_at_any_node_is_found(self, path):
        # every node in turn, so that each branch of the tree is walked
        sc = load_scenario(os.path.join(ROOT, path))
        table = build_table(sc.cfg)
        (init,) = closed_net(sc.tree, sc.cfg, table).init
        for ip in sorted(node_states(init)):
            high = forge_data(init, ip, lambda d: replace(
                d, sn=d.sn + 5, rt=d.rt.set(9, rte(dsn=4, nhip=9))))
            low = forge_data(high, ip, lambda d: replace(
                d, sn=d.sn - 5, rt=d.rt.set(9, rte(dsn=2, nhip=9))))
            want = scan_node_data(high, low)
            assert want == [(ip, 6, 1), (ip, 9, 4, 2)]
            got = [check(high, fake_step(), root_parts(low))
                   for _, check in step_checks(table, self.NAMES)]
            assert got == want

    def test_two_nodes_changed_at_once_report_the_least_address(self):
        # node 2 is the left child and node 1 the right, so the walk
        # meets the greater address first
        table = build_table(BASE)
        auto = closed_net(tree_of([(2, [1]), (1, [2])]), BASE, table)
        (init,) = auto.init
        assert init.left.ip == 2
        high = init
        for ip in (1, 2):
            high = forge_data(high, ip, lambda d: replace(d, sn=d.sn + 5))
        ((_, check),) = step_checks(table, ["sn-monotone"])
        want = (1, 6, 1)
        assert scan_node_data(high, init)[0] == want
        assert check(high, fake_step(), root_parts(init)) == want
        v = check_step_invariants((high, fake_step(), init), table,
                                  ["sn-monotone"])
        assert v.witness == want


class TestSuiteWiring:
    def test_default_split_covers_everything(self):
        state, step = split_suites()
        assert set(state) | set(step) == set(ALL_SUITES)
        assert not set(state) & set(step)

    def test_explicit_split(self):
        state, step = split_suites(["loop-freedom", "sn-monotone"])
        assert state == ("loop-freedom",)
        assert step == ("sn-monotone",)

    def test_unknown_suite_rejected(self):
        with pytest.raises(SuiteError, match="unknown suite"):
            split_suites(["loop-fredom"])

    def test_repeated_suite_rejected(self):
        with pytest.raises(SuiteError, match="'quality' is selected twice"):
            split_suites(["quality", "loop-freedom", "quality"])

    def test_checks_are_named_pairs(self):
        table = build_table(BASE)
        assert [n for n, _ in state_checks(table)] == list(split_suites()[0])
        assert [n for n, _ in step_checks(table)] == list(split_suites()[1])
