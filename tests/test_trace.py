"""Action text: the field-derived renderer against per-class f-strings.

``trace.render_action`` renders an action from its dataclass fields.
The reference below spells each class out by hand, so that a field
added, removed or reordered in one of the action classes shows here as
changed text.
"""
import pytest
from hypothesis import given, strategies as st

from aodvcheck.awn import (ArriveA, CastA, ConnectA, DeliverAtA, DisconnectA,
                           NewpktA, TauA, UnicastFailA)
from aodvcheck.trace import render_action
from test_canon import ACTIONS

REFERENCE = {
    TauA: lambda a: "tau",
    CastA: lambda a: f"cast({sorted(a.dests)}, {a.msg!r})",
    ArriveA: lambda a: (f"arrive({sorted(a.heard)}, {sorted(a.missed)}, "
                        f"{a.msg!r})"),
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

