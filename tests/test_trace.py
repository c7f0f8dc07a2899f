"""Action text: the field-derived renderer against per-class f-strings.

``trace.render_action`` renders an action from its dataclass fields.
The reference below spells each class out by hand, so that a field
added, removed or reordered in one of the action classes shows here as
changed text.
"""
import pytest
from hypothesis import given, strategies as st

from aodvcheck.awn import (TAU, CastA, ConnectA, DeliverAtA, DisconnectA,
                           NewpktA, TauA, UnicastFailA)
from aodvcheck.messages import Newpkt
from aodvcheck.trace import render_action
from test_canon import ACTIONS

REFERENCE = {
    TauA: lambda a: "tau",
    CastA: lambda a: f"cast({sorted(a.dests)}, {a.msg!r})",
    NewpktA: lambda a: f"newpkt({a.ip}, {a.data!r}, {a.dip})",
    DeliverAtA: lambda a: f"deliver({a.ip}, {a.data!r})",
    ConnectA: lambda a: f"connect({a.a}, {a.b})",
    DisconnectA: lambda a: f"disconnect({a.a}, {a.b})",
    UnicastFailA: lambda a: f"unicast_fail({a.dest})",
}

RENDERED = sorted(cls.__name__ for cls in REFERENCE)


@pytest.mark.parametrize("name", RENDERED)
@given(data=st.data())
def test_rendering_matches_the_reference(name, data):
    a = data.draw(ACTIONS[name])
    assert render_action(a) == REFERENCE[type(a)](a)


@pytest.mark.parametrize("name", sorted(set(ACTIONS) - set(RENDERED)))
@given(data=st.data())
def test_process_level_actions_are_not_rendered(name, data):
    # the node layer turns each of these into one of the rendered kinds
    with pytest.raises(TypeError):
        render_action(data.draw(ACTIONS[name]))



def test_fields_render_in_declaration_order():
    # literal text, so that a change to the reference and the renderer
    # alike still shows
    assert render_action(TAU) == "tau"
    assert (render_action(CastA(frozenset({3, 1}), Newpkt("x", 2)))
            == "cast([1, 3], Newpkt(data='x', dip=2))")
    assert render_action(NewpktA(2, "x", 1)) == "newpkt(2, 'x', 1)"
    assert render_action(DeliverAtA(4, "y")) == "deliver(4, 'y')"
    assert render_action(UnicastFailA(7)) == "unicast_fail(7)"
