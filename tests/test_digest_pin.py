"""Structural digests are pinned byte for byte.

Counterexample files (``init_key``) and the node memos are keyed by
``bdigest``, and the explorer's visited-set keys number each state's
leaves by it, so a rewrite of the encoder must reproduce every byte.
The hex values below were recorded with the encoder as it stood before
type dispatch replaced its ``isinstance`` ladder.
"""
import os

import pytest

from aodvcheck.canon import FrozenMap, bdigest
from aodvcheck.explore import EnvNet
from aodvcheck.messages import (Newpkt, Pkt, Rerr, Rrep, Rreq, RreqFlagged,
                                RreqNoId)
from aodvcheck.network import closed_net
from aodvcheck.routing import INVALID, KNOWN, UNKNOWN, VALID, RouteEntry
from aodvcheck.scenario import load_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pair2_init():
    sc = load_scenario(os.path.join(ROOT, "scenarios", "pair2.json"))
    (init,) = EnvNet(closed_net(sc.tree, sc.cfg), sc.env).init
    return init


def pinned_values() -> dict:
    return {
        "pair2-init": _pair2_init(),
        "route-map": FrozenMap({
            2: RouteEntry(3, KNOWN, VALID, 1, 2, frozenset({1})),
            3: RouteEntry(0, UNKNOWN, INVALID, 2, 2, frozenset()),
        }),
        "flat-tuple": (1, "a", None, True),
        "nested-flat-tuple": ((1, 2), ("x", None), ()),
        "nested-tuple": (1, frozenset({2}), (Pkt("x", 2, 1), "y")),
        "true": True,
        "one": 1,
        "none": None,
        "frozenset": frozenset({1, 2, 3}),
        "Newpkt": Newpkt("a", 2),
        "Pkt": Pkt("a", 2, 1),
        "Rreq": Rreq(0, 1, 2, 0, UNKNOWN, 1, 2, 1),
        "RreqNoId": RreqNoId(0, 2, 0, UNKNOWN, 1, 2, 1),
        "RreqFlagged": RreqFlagged(0, 1, 2, 0, UNKNOWN, 1, 2, 1, True),
        "Rrep": Rrep(1, 2, 3, 1, 2),
        "Rerr": Rerr(FrozenMap({2: 3}), 1),
    }


PINNED = {
    "pair2-init": "652a502070ef434b94ee90004d9cea60",
    "route-map": "a89882cd8274d49d7d185461370e0058",
    "flat-tuple": "50edb064fe18987e18d349ffc62c8ce1",
    "nested-flat-tuple": "61c81a8021bb874aa157a40daaded789",
    "nested-tuple": "a415658f727c1049b3051a24ef46b02e",
    "true": "af23d3f7a949a31288f465f9002b909b",
    "one": "f64551fcd6f07823cb87971cfb914464",
    "none": "9a76a815a8e8362c99621615e79ac909",
    "frozenset": "b9214a4912f75181d5f18c1029439635",
    "Newpkt": "c192e4a3b0369f2699af94f0de97d452",
    "Pkt": "ed15466af3b27c1be2ac51ce33dad78e",
    "Rreq": "b7692e8878889372f0298775d4e9de94",
    "RreqNoId": "76b6447f8a0d0ac5e6703e148cb85eba",
    "RreqFlagged": "633608e23fe2dc327d319b43f5e5fb9b",
    "Rrep": "3a7b490287e2c6f3d504aa5fe1bb727c",
    "Rerr": "8c6fea30e035c9f36fa67cb3a2b2f73b",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_bytes_are_pinned(name):
    assert bdigest(pinned_values()[name]).hex() == PINNED[name]


def test_every_value_is_pinned():
    assert set(PINNED) == set(pinned_values())


def test_bool_and_int_digest_apart():
    assert bdigest(True) != bdigest(1)
    assert bdigest(False) != bdigest(0)
