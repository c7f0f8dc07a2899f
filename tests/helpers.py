"""Shared drivers for exercising automata in tests."""
from dataclasses import replace

from aodvcheck.awn import EMPTY_MENU, NetMenu, NewpktA, NodeS, SubnetS
from aodvcheck.canon import FrozenMap
from aodvcheck.messages import Newpkt
from aodvcheck.simulate import sibling_order


def canonical_steps(auto, state, menu=EMPTY_MENU):
    """Rich steps in canonical order; pass menu=None for env-closed automata."""
    rs = auto.rich_steps(state) if menu is None else auto.rich_steps(state, menu)
    return sibling_order(rs)


def run_to_quiescence(auto, state, menu=EMPTY_MENU, limit=5000):
    """Follow the first canonical step until nothing is enabled."""
    for _ in range(limit):
        steps = canonical_steps(auto, state, menu)
        if not steps:
            return state
        state = steps[0].target
    raise AssertionError(f"no quiescence within {limit} steps")


def inject(auto, state, ip, data, dip):
    """Take the new-packet step at ``ip``; the menu is offered only here."""
    menu = NetMenu(newpkts=FrozenMap({ip: (Newpkt(data, dip),)}))
    steps = [r for r in canonical_steps(auto, state, menu)
             if isinstance(r.detail, NewpktA)]
    assert steps, f"node {ip} cannot accept a new packet"
    return steps[0].target


def inject_and_quiesce(auto, state, ip, data, dip, limit=5000):
    return run_to_quiescence(auto, inject(auto, state, ip, data, dip),
                             limit=limit)


def forge_data(state, ip, fn):
    """Rebuild a network state with node ``ip``'s protocol data replaced.

    Deliberately bypasses the protocol: tests use this to plant states
    the monitor must reject.
    """
    if isinstance(state, NodeS):
        if state.ip != ip:
            return state
        proto, queue = state.inner
        return replace(state, inner=(replace(proto, data=fn(proto.data)),
                                     queue))
    if isinstance(state, SubnetS):
        return replace(state, left=forge_data(state.left, ip, fn),
                       right=forge_data(state.right, ip, fn))
    raise TypeError(f"not a network state: {state!r}")
