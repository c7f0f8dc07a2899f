"""Explorer against a naive search over the rule-by-rule oracle.

Random small networks, environments and variants are explored twice:
once by the package's explorer and once by a plain breadth-first search
whose successors come from ``oracle_sos.closed_oracle`` under the menus
``EnvNet.menu_for`` offers.  Both must reach the same states, count the
same transitions and depth, and reach the same verdict.
"""
from types import SimpleNamespace

from hypothesis import given, strategies as st

from aodvcheck.awn import ConnectA, DisconnectA, NewpktA, root_parts
from aodvcheck.canon import digest, value_key
from aodvcheck.explore import (EnvNet, EnvState, check_theorem1, env_menu,
                               explore, reachable)
from aodvcheck.monitor import state_checks, step_checks
from aodvcheck.network import closed_net
from aodvcheck.protocol import build_table
from aodvcheck.variants import VARIANTS

from oracle_sos import closed_oracle, node_or_subnet_oracle


@st.composite
def cases(draw):
    # four nodes nest two subnets below the root, as in fig1, so both
    # levels of memoized subnet steps meet the oracle
    n = draw(st.integers(2, 4))
    ips = list(range(1, n + 1))
    pairs = [(a, b) for a in ips for b in ips if a < b]
    # n - 1 links connect up to three nodes; four may be left split
    links = draw(st.sets(st.sampled_from(pairs), min_size=n - 1))
    order = draw(st.permutations(ips))
    nodes = [(ip, {b if a == ip else a for a, b in links if ip in (a, b)})
             for ip in order]
    rows = draw(st.lists(st.tuples(st.sampled_from(ips), st.sampled_from("ab"),
                                   st.sampled_from(ips), st.just(1)),
                         max_size=2))
    event = draw(st.none() | st.tuples(
        st.sampled_from([ConnectA, DisconnectA]), st.sampled_from(pairs)))
    events = [] if event is None else [event[0](*event[1])]
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    bound = draw(st.integers(0, 10))
    return nodes, env_menu(rows, events), VARIANTS[variant], bound


def _env_after(env_s, action):
    if isinstance(action, NewpktA):
        key = (action.ip, action.data, action.dip)
        left = env_s.remaining[key]
        rem = (env_s.remaining.remove(key) if left == 1
               else env_s.remaining.set(key, left - 1))
        return EnvState(rem, env_s.pos)
    if isinstance(action, (ConnectA, DisconnectA)):
        return EnvState(env_s.remaining, env_s.pos + 1)
    return env_s


def naive_search(auto, table, bound):
    """Plain BFS over oracle successors, to ``bound`` layers.

    Returns the reached states by key, the transition count, the depth,
    and the suites violated in the first layer that violates any.  Step
    suites see the open network's steps, where a cast still shows its
    message, since the closed oracle reports casts as Tau.
    """
    schecks, tchecks = state_checks(table), step_checks(table)

    def state_faults(s):
        return {n for n, f in schecks if f(s[0]) is not None}

    seen = {value_key(s): s for s in auto.init}
    frontier = list(seen.values())
    faults = set().union(*map(state_faults, frontier))
    first_faults = faults or None
    edges = depth = 0
    while frontier and depth < bound:
        nxt, faults = [], set()
        for s in frontier:
            net_s, env_s = s
            menu = auto.menu_for(env_s)
            for a, t in node_or_subnet_oracle(auto.net.net, net_s, menu):
                rich = SimpleNamespace(origin=None, detail=a)
                after = root_parts(t)
                faults |= {n for n, f in tchecks
                           if f(net_s, rich, after) is not None}
            for a, t in closed_oracle(auto.net, net_s, menu):
                edges += 1
                target = (t, _env_after(env_s, a))
                k = value_key(target)
                if k not in seen:
                    seen[k] = target
                    nxt.append(target)
                    faults |= state_faults(target)
        if nxt:
            depth += 1
        if faults and first_faults is None:
            first_faults = faults
        frontier = nxt
    return seen, edges, depth, first_faults or set()


@given(cases())
def test_explorer_matches_oracle_search(case):
    nodes, env, cfg, bound = case
    table = build_table(cfg)
    auto = EnvNet(closed_net(nodes, cfg, table), env)
    seen, edges, depth, faults = naive_search(auto, table, bound)

    got = reachable(auto, bound=bound)
    assert {digest(value_key(s)) for s in got} == \
           {digest(k) for k in seen}

    rep = explore(auto, bound=bound)
    assert (rep.states, rep.transitions, rep.depth) == \
           (len(seen), edges, depth)

    verdict = check_theorem1(nodes, env, cfg, bound=bound)
    assert verdict.holds == (not faults)
    assert {cx.suite for cx in verdict.counterexamples} == faults
