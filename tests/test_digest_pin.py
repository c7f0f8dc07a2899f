"""Structural digests are pinned byte for byte.

Counterexample files (``init_key``) and the node memos are keyed by
``bdigest``, and the explorer's visited-set keys number each state's
leaves by it, so a rewrite of the encoder must reproduce every byte.
The hex values below were recorded with the encoder as it stood before
type dispatch replaced its ``isinstance`` ladder.

The simulator's sibling order and a counterexample file's state digests
read ``value_key``, so each value's key is pinned as well, through
``digest`` (a hash of the key's ``repr``).  Those hex values were
recorded with ``value_key`` as it stood before it, too, dispatched on
exact type.
"""
import os

import pytest

from aodvcheck.awn import CastA, RichStep
from aodvcheck.canon import FrozenMap, bdigest, digest, value_key
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
        # a network step is a named tuple, and encodes as a tuple; its
        # pins were recorded from the plain tuple of its three fields,
        # by the encoder as it stood when records still had a fourth
        # field, ``action``
        "RichStep": RichStep(1, CastA(frozenset({2}), Pkt("a", 2, 1)),
                             Pkt("a", 2, 1)),
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
    "RichStep": "90b37efe10d6442860734e55a1e7212e",
}

KEY_PINNED = {
    "pair2-init": "d6a3a9f5c0c7b2ea6ea50d973ad9a0ef",
    "route-map": "734e1bcc0e56aa7d833c45a566baba04",
    "flat-tuple": "b56e96c42ce4d29c81729c9f34057f02",
    "nested-flat-tuple": "b56b76a2fdabb83acecc81ba66b00463",
    "nested-tuple": "3cdc396bf486cd1502e9620d0d6c09b2",
    "true": "a166e2dba543d1896dfc1dc1837874e1",
    "one": "cd82c17ffff5685e6373658ac427330a",
    "none": "df390be190b1f510e91457f7a6df0bd7",
    "frozenset": "d104e5322a75b61f05b880fcd8f7df80",
    "Newpkt": "4990baa4f07258ea66d46f817c97bd92",
    "Pkt": "dc025cd05ab59cb5372f700138d2a105",
    "Rreq": "e539fc43c7104911efcca2e4e4f010ac",
    "RreqNoId": "4694c15fa7f2fb5e98c6867d997e1bac",
    "RreqFlagged": "85558e6eb9e8bc40db0d2031d55a00fe",
    "Rrep": "d0e024c65384d5ed9e06a27283d1ecc6",
    "Rerr": "c1c702af04e0410b150e1902b1c7bae1",
    "RichStep": "10735b11c34d1c88a87daca7782d31c0",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_bytes_are_pinned(name):
    assert bdigest(pinned_values()[name]).hex() == PINNED[name]


@pytest.mark.parametrize("name", sorted(KEY_PINNED))
def test_key_digests_are_pinned(name):
    assert digest(value_key(pinned_values()[name])) == KEY_PINNED[name]


def test_every_value_is_pinned():
    assert set(PINNED) == set(KEY_PINNED) == set(pinned_values())


def test_bool_and_int_digest_apart():
    assert bdigest(True) != bdigest(1)
    assert bdigest(False) != bdigest(0)
