"""Canonical encodings: keys and structural digests agree with equality.

Every model value is encoded from its dataclass fields, once for the
nested-tuple key and once for the structural digest.  For any two
values the three relations ``==``, equal keys and equal digests must
hold together or fail together.
"""
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from aodvcheck.awn import (TAU, BroadcastA, CastA, ConnectA, DeliverA,
                           DeliverAtA, DisconnectA, GroupcastA, Label,
                           NewpktA, ReceiveA, SendA, UnicastA, UnicastFailA)
from aodvcheck.canon import FrozenMap, bdigest, digest, value_key
from aodvcheck.explore import EnvNet
from aodvcheck.messages import (Newpkt, Pkt, Rerr, Rrep, Rreq, RreqFlagged,
                                RreqNoId)
from aodvcheck.network import closed_net
from aodvcheck.protocol import (NOT_REQUESTED, REQUESTED, AodvData,
                                StoreSlot, aodv_init)
from aodvcheck.routing import (INVALID, KNOWN, UNKNOWN, VALID, RouteEntry,
                               SlimRouteEntry)
from aodvcheck.scenario import load_scenario

# Small domains, so that independently drawn values are often equal.
ips = st.integers(1, 2)
nums = st.integers(0, 2)
datum = st.sampled_from("xy")
dsk = st.sampled_from((KNOWN, UNKNOWN))
flag = st.sampled_from((VALID, INVALID))
addr_sets = st.frozensets(ips, max_size=2)


def maps(keys, values):
    return st.dictionaries(keys, values, max_size=2).map(FrozenMap)


MESSAGES = {
    "Newpkt": st.builds(Newpkt, datum, ips),
    "Pkt": st.builds(Pkt, datum, ips, ips),
    "Rreq": st.builds(Rreq, nums, nums, ips, nums, dsk, ips, nums, ips),
    "RreqNoId": st.builds(RreqNoId, nums, ips, nums, dsk, ips, nums, ips),
    "RreqFlagged": st.builds(RreqFlagged, nums, nums, ips, nums, dsk, ips,
                             nums, ips, st.booleans()),
    "Rrep": st.builds(Rrep, nums, ips, nums, ips, ips),
    "Rerr": st.builds(Rerr, maps(ips, nums), ips),
}
messages = st.one_of(*MESSAGES.values())

ROUTES = {
    "RouteEntry": st.builds(RouteEntry, nums, dsk, flag, nums, ips,
                            addr_sets),
    "SlimRouteEntry": st.builds(SlimRouteEntry, nums, dsk, flag, nums, ips),
}


ACTIONS = {
    "TauA": st.just(TAU),
    "BroadcastA": st.builds(BroadcastA, messages),
    "GroupcastA": st.builds(GroupcastA, addr_sets, messages),
    "UnicastA": st.builds(UnicastA, ips, messages),
    "UnicastFailA": st.builds(UnicastFailA, ips),
    "SendA": st.builds(SendA, messages),
    "ReceiveA": st.builds(ReceiveA, messages),
    "DeliverA": st.builds(DeliverA, datum),
    "CastA": st.builds(CastA, addr_sets, messages),
    "ConnectA": st.builds(ConnectA, ips, ips),
    "DisconnectA": st.builds(DisconnectA, ips, ips),
    "NewpktA": st.builds(NewpktA, ips, datum, ips),
    "DeliverAtA": st.builds(DeliverAtA, ips, datum),
}

slots = st.builds(StoreSlot, st.sampled_from((REQUESTED, NOT_REQUESTED)),
                  st.lists(datum, max_size=2).map(tuple))

KINDS = {
    **MESSAGES, **ROUTES, **ACTIONS,
    "StoreSlot": slots,
    "AodvData": st.builds(
        AodvData, ips, sn=nums, rt=maps(ips, st.one_of(*ROUTES.values())),
        rreqs=st.frozensets(st.tuples(ips, nums), max_size=2),
        store=maps(ips, slots), msg=st.none() | messages,
        data=st.none() | datum, dip=nums, handled=st.booleans()),
}
any_kind = st.one_of(*KINDS.values())


def assert_encodings_agree(a, b):
    same = a == b
    assert (value_key(a) == value_key(b)) is same
    assert (bdigest(a) == bdigest(b)) is same


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40)
@given(data=st.data())
def test_equality_keys_and_digests_agree(kind, data):
    a, other = data.draw(KINDS[kind]), data.draw(KINDS[kind])
    # a distinct object, field for field equal to ``a``
    assert_encodings_agree(a, replace(a))
    # ``a`` with any one field taken from another value of its kind
    for f in fields(a):
        b = replace(a, **{f.name: getattr(other, f.name)})
        assert_encodings_agree(a, b)
    assert_encodings_agree(a, other)
    assert_encodings_agree(a, data.draw(any_kind))


def test_classes_with_equal_fields_encode_apart():
    a, b = ConnectA(1, 2), DisconnectA(1, 2)
    assert value_key(a) != value_key(b)
    assert bdigest(a) != bdigest(b)


def test_key_is_class_name_then_field_keys():
    assert value_key(TAU) == ("TauA",)
    assert value_key(Label("aodv", 3)) == ("Label", ("str", "aodv"),
                                           ("int", 3))
    assert value_key(UnicastFailA(2)) == ("UnicastFailA", ("int", 2))
    assert value_key(Newpkt("x", 2)) == ("Newpkt", ("str", "x"), ("int", 2))


def test_small_int_keys_are_built_once():
    # the keys cached on model values share the keys of small
    # non-negative ints; every other int is keyed afresh, alike in value
    assert value_key(0) is value_key(0) == ("int", 0)
    assert value_key(255) is value_key(255) == ("int", 255)
    assert value_key(256) == ("int", 256) and value_key(-1) == ("int", -1)
    assert value_key(True) == ("bool", 1)


def test_encodings_are_cached_on_the_instance():
    xi = aodv_init(1)
    k, d = value_key(xi), bdigest(xi)
    assert xi.__dict__["_ckey"] is k and xi.__dict__["_bdg"] is d
    assert value_key(xi) is k and bdigest(xi) is d


# A fixed alphabet, with characters beyond ASCII, spares Hypothesis
# building its Unicode character map, which multiplies a test process's
# peak memory several times over.
@given(st.one_of(
    st.sets(st.integers(), max_size=6),
    st.sets(st.tuples(st.integers(-3, 3), st.text("abé中", max_size=2),
                      st.integers(-3, 3)), max_size=6)))
def test_map_iterates_its_keys_in_key_order(keys):
    # the model's maps have int or (ip, data, dip) keys, which sort by
    # themselves as by their canonical keys
    m = FrozenMap(dict.fromkeys(keys, 0))
    assert list(m) == sorted(keys, key=value_key)


map_keys = st.one_of(st.integers(-3, 3), st.tuples(ips, datum, ips))
map_values = st.one_of(nums, messages, *ROUTES.values())


@given(st.one_of(st.dictionaries(st.integers(-3, 3), map_values, max_size=5),
                 st.dictionaries(st.tuples(ips, datum, ips), map_values,
                                 max_size=5)),
       st.lists(map_keys, max_size=3))
def test_map_reads_its_dict_and_caches_its_key(d, probes):
    # the accessors that read the dict directly agree with the mixins,
    # in sorted order and with the mixin's defaults
    m = FrozenMap(d)
    assert m.items() == list(Mapping.items(m))
    assert m.values() == list(Mapping.values(m))
    for key in list(d) + probes:
        assert m.get(key) == Mapping.get(m, key)
        assert m.get(key, "default") == Mapping.get(m, key, "default")
    # the cached key is the fresh encoding, and is built once
    k = value_key(m)
    assert k == ("map",) + tuple((value_key(a), value_key(b))
                                 for a, b in Mapping.items(m))
    assert k == value_key(FrozenMap(d))
    assert value_key(m) is k


def test_fields_excluded_from_comparison_are_not_encoded():
    @dataclass(frozen=True)
    class Tagged:
        n: int
        note: str = ""

    @dataclass(frozen=True)
    class Noted:
        n: int
        note: str = field(default="", compare=False)

    assert value_key(Tagged(1, "a")) != value_key(Tagged(1, "b"))
    assert Noted(1, "a") == Noted(1, "b")
    assert value_key(Noted(1, "a")) == value_key(Noted(1, "b"))
    assert bdigest(Noted(1, "a")) == bdigest(Noted(1, "b"))


def test_values_without_an_encoding_are_rejected():
    with pytest.raises(TypeError, match="no canonical encoding"):
        value_key(object())
    with pytest.raises(TypeError, match="no canonical encoding"):
        bdigest(object())


def test_digest_of_a_tuple_of_model_values_is_the_digest_of_its_key():
    # An explorer state is a (network, environment) pair.  Taken for a
    # key, its repr would be hashed, which shows the addresses of the
    # process terms' functions and so changes with every run.
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scenarios", "pair2.json")
    sc = load_scenario(path)
    auto = EnvNet(closed_net(sc.tree, sc.cfg), sc.env)
    (state,) = auto.init
    for _ in range(6):
        state = auto.rich_steps(state)[0].target
    assert type(state) is tuple
    assert digest(state) == digest(value_key(state))
    # a key is digested as it is, not encoded again
    key = value_key(state)
    assert digest(key) != digest(value_key(key))
