"""Protocol variants: registry, behavioural fingerprints, reply forwarding.

Each variant leaves a trace-visible mark (a different request message
class, or the absence of grouped error casts), so these tests pin the
mark down rather than poking at table internals.  The reply-forwarding
demonstration at the end runs the same seeded schedule twice and checks
that only the forwarding variant gets the payload through.
"""
import pytest

from aodvcheck import protocol
from aodvcheck.awn import Groupcast, ModelError, NewpktA
from aodvcheck.canon import FrozenMap
from aodvcheck.explore import check_theorem1, env_menu
from aodvcheck.network import net_data
from aodvcheck.protocol import (BASE, VariantConfig, build_table,
                                rreq_message_kind, valid_dests)
from aodvcheck.simulate import Schedule, run
from aodvcheck.variants import (MUTATIONS, VARIANTS, VariantError,
                                apply_mutations, get_variant,
                                with_variant)

PAIR = [(1, [2]), (2, [1])]
CHAIN = [(1, [2]), (2, [1, 3]), (3, [2])]


def discovery(seed=0, max_steps=300):
    """One end of the chain asks for a route to the other."""
    return Schedule(seed, max_steps, FrozenMap({0: NewpktA(1, "p", 3)}))


def race(seed, max_steps=400):
    """Both chain ends start a route discovery at once."""
    return Schedule(seed, max_steps, FrozenMap({0: NewpktA(1, "p", 3),
                                                1: NewpktA(3, "q", 1)}))


def actions(result):
    return [r["action"] for r in result.records if "action" in r]


def table_terms(table):
    """Every process term reachable from the table's named bodies."""
    seen, out = set(), []
    stack = [table[name] for name in table.names()]
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        out.append(term)
        for attr in ("cont", "left", "right", "ok", "fail"):
            child = getattr(term, attr, None)
            if child is not None:
                stack.append(child)
    return out


class TestRegistry:
    def test_known_names(self):
        assert set(VARIANTS) == {"base", "no-rreqid", "fwd-rrep",
                                 "bcast-rerr", "fwd-rreq"}

    def test_get_variant_round_trips(self):
        for name, cfg in VARIANTS.items():
            assert get_variant(name) is cfg

    def test_base_is_the_default_config(self):
        assert get_variant("base") == BASE

    def test_unknown_variant_lists_the_known_ones(self):
        with pytest.raises(VariantError, match="base.*fwd-rrep"):
            get_variant("aodvv2")

    def test_variant_error_is_a_value_error(self):
        assert issubclass(VariantError, ValueError)

    def test_each_variant_flips_exactly_one_flag(self):
        base = VARIANTS["base"]
        for name, cfg in VARIANTS.items():
            diffs = [f for f in ("use_rreq_id", "forward_all_rreps",
                                 "use_precursors", "forward_handled_rreqs",
                                 "accept_stale_update")
                     if getattr(cfg, f) != getattr(base, f)]
            assert len(diffs) == (0 if name == "base" else 1), (name, diffs)

    def test_flag_assignments(self):
        assert not VARIANTS["no-rreqid"].use_rreq_id
        assert VARIANTS["fwd-rrep"].forward_all_rreps
        assert not VARIANTS["bcast-rerr"].use_precursors
        assert VARIANTS["fwd-rreq"].forward_handled_rreqs

    def test_no_variant_accepts_stale_updates(self):
        assert all(not cfg.accept_stale_update for cfg in VARIANTS.values())


class TestSwitchCombinations:
    # requests without ids have no handled flag, so this pair of
    # switches has no message kind; building the no-rreqid model for it
    # would drop forward_handled_rreqs without a word
    NO_ID_FLAGGED = VariantConfig(name="no-id-flagged", use_rreq_id=False,
                                  forward_handled_rreqs=True)

    def test_no_id_with_handled_flag_is_rejected(self):
        with pytest.raises(ModelError,
                           match="use_rreq_id.*forward_handled_rreqs"):
            rreq_message_kind(self.NO_ID_FLAGGED)

    def test_rejected_on_every_build(self):
        size = protocol._labelled_table.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ModelError, match="forward_handled_rreqs"):
                build_table(self.NO_ID_FLAGGED)
        assert protocol._labelled_table.cache_info().currsize == size


class TestMutations:
    def test_registry_contents(self):
        assert MUTATIONS == ("accept-stale-update",)

    def test_accept_stale_update(self):
        cfg = apply_mutations(BASE, ["accept-stale-update"])
        assert cfg.accept_stale_update
        assert not BASE.accept_stale_update

    def test_empty_list_is_identity(self):
        assert apply_mutations(BASE, []) == BASE

    def test_unknown_mutation(self):
        with pytest.raises(VariantError, match="accept-stale-update"):
            apply_mutations(BASE, ["drop-every-rrep"])

    def test_compose_with_variant(self):
        cfg = apply_mutations(get_variant("fwd-rrep"), ["accept-stale-update"])
        assert cfg.forward_all_rreps and cfg.accept_stale_update

    def test_swapping_the_variant_keeps_the_mutations(self):
        mutated = apply_mutations(get_variant("fwd-rreq"),
                                  ["accept-stale-update"])
        assert with_variant(mutated, "fwd-rrep") == apply_mutations(
            get_variant("fwd-rrep"), ["accept-stale-update"])
        assert with_variant(get_variant("fwd-rreq"), "base") == BASE
        with pytest.raises(VariantError, match="unknown variant"):
            with_variant(mutated, "aodvv2")


class TestMessageFingerprints:
    """The request class in the trace tells the variants apart."""

    def test_base_floods_plain_requests(self):
        acts = actions(run(CHAIN, discovery(), VARIANTS["base"]))
        assert any("Rreq(" in a for a in acts)
        assert not any("RreqNoId" in a or "RreqFlagged" in a for a in acts)

    def test_no_rreqid_floods_idless_requests(self):
        acts = actions(run(CHAIN, discovery(), VARIANTS["no-rreqid"]))
        assert any("RreqNoId" in a for a in acts)
        assert not any("Rreq(" in a for a in acts)

    def test_fwd_rreq_floods_flagged_requests(self):
        acts = actions(run(CHAIN, discovery(), VARIANTS["fwd-rreq"]))
        assert any("RreqFlagged" in a for a in acts)
        assert not any("Rreq(" in a for a in acts)

    def test_fresh_discovery_is_never_marked_handled(self):
        # on a cold chain nobody can answer midway, so every flagged
        # request still carries handled=False
        acts = actions(run(CHAIN, discovery(), VARIANTS["fwd-rreq"]))
        assert any("handled=False" in a for a in acts)
        assert not any("handled=True" in a for a in acts)

    def test_midway_answer_marks_the_request_handled(self):
        # racing discoveries let the middle node answer one of them
        # from what the other taught it; the request travels on marked
        res = run(CHAIN, race(seed=0), VARIANTS["fwd-rreq"])
        assert sum("handled=True" in a for a in actions(res)) == 1

    def test_all_variants_deliver_on_a_quiet_chain(self):
        for name, cfg in VARIANTS.items():
            res = run(CHAIN, discovery(), cfg)
            assert res.stop == "quiescent", name
            assert any(ip == 3 and data == "p"
                       for _, ip, data in res.delivered), name


class TestErrorCastShape:
    def test_base_groupcasts_route_errors(self):
        terms = table_terms(build_table(VARIANTS["base"]))
        assert any(isinstance(t, Groupcast) for t in terms)

    def test_bcast_rerr_never_groupcasts(self):
        terms = table_terms(build_table(VARIANTS["bcast-rerr"]))
        assert not any(isinstance(t, Groupcast) for t in terms)

    def test_bcast_rerr_routes_carry_no_precursors(self):
        res = run(CHAIN, discovery(), VARIANTS["bcast-rerr"])
        entries = [e for data in net_data(res.final_state).values()
                   for e in data.rt.values()]
        assert entries
        assert all(not hasattr(e, "pre") for e in entries)

    def test_base_routes_track_precursors(self):
        res = run(CHAIN, discovery(), VARIANTS["base"])
        entries = [e for data in net_data(res.final_state).values()
                   for e in data.rt.values()]
        assert any(e.pre for e in entries)


class TestVariantsStayClean:
    """Every variant passes the whole suite on a small exhaustive run."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_pair_single_packet(self, name):
        rep = check_theorem1(PAIR, env_menu(newpkts=[(1, "x", 2, 1)]),
                             cfg=VARIANTS[name])
        assert rep.complete and rep.holds, name


class TestReplyForwarding:
    """Racing discoveries on the chain, frozen at seed 4.

    The middle node answers one request from what the other taught it
    and then, holding no news for the returning reply, drops that reply
    under the base rules.  The originator is left waiting forever: its
    packet sits queued with the request already sent and no valid route.
    The forwarding variant passes the reply along instead.
    """

    def test_base_drops_the_reply(self):
        res = run(CHAIN, race(seed=4), VARIANTS["base"])
        assert res.stop == "quiescent" and res.holds
        assert not any(data == "p" for _, _, data in res.delivered)
        data = net_data(res.final_state)
        slot = data[1].store[3]
        assert slot.flag == "noreq" and "p" in slot.queue
        assert 3 not in valid_dests(data[1].rt)
        entry = data[2].rt[3]
        assert entry.flag == "val" and entry.dsn >= 2

    def test_fwd_rrep_delivers(self):
        res = run(CHAIN, race(seed=4), VARIANTS["fwd-rrep"])
        assert res.stop == "quiescent" and res.holds
        assert any(ip == 3 and data == "p" for _, ip, data in res.delivered)

    def test_other_packet_arrives_either_way(self):
        for name in ("base", "fwd-rrep"):
            res = run(CHAIN, race(seed=4), VARIANTS[name])
            assert any(ip == 1 and data == "q"
                       for _, ip, data in res.delivered), name
