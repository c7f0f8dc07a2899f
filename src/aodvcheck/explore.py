"""Bounded explicit-state exploration of closed networks.

The environment is finitized by an :class:`EnvMenu`: a budget of
new-packet injections per (node, data, destination) triple and an
ordered script of topology events.  ``EnvNet`` pairs a closed network
automaton with that menu so exploration is over completely closed
systems.

``explore`` is a deterministic breadth-first search: initial states are
sorted by canonical key, and each state's successors are taken in the
order the step functions build them (see :mod:`aodvcheck.awn`), so
reports and counterexamples are reproducible byte for byte, independent
of hash seeds.  To keep millions of states affordable, the search
retains per state only a short key plus its parent's key and a branch
rank; counterexample paths are rebuilt afterwards by replaying those
ranks from the initial state.

A state's key is made of run-local numbers of its root parts (see
``_numbering``): a network state is a tree of subnets over node states,
and a step renews only one spine of it, so a successor's key costs a
few dict lookups on subtrees the run has already numbered instead of a
digest of the whole state.  Leaves are numbered by their ``bdigest``,
so keys are as exact as digests; the numbers never leave the run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .awn import (ConnectA, DisconnectA, ModelError, NetMenu, RichStep,
                  NewpktA, SubnetS)
from .canon import (EMPTY_MAP, FrozenMap, bdigest, cache_attr, digest,
                    value_key)
from .messages import Newpkt
from .monitor import state_checks, step_checks
from .network import NetTree, closed_net
from .protocol import BASE, VariantConfig, build_table
from .trace import render_action

DEFAULT_STATE_CAP = 10_000_000


class ResourceCapError(Exception):
    """The state cap was hit; carries the partial report."""

    def __init__(self, report):
        super().__init__(f"state cap exceeded after {report.states} states")
        self.report = report


@dataclass(frozen=True)
class EnvMenu:
    newpkts: FrozenMap = EMPTY_MAP   # (ip, data, dip) -> injection budget
    links: tuple = ()                # Connect/Disconnect actions, in order


def env_menu(newpkts=(), links=()) -> EnvMenu:
    """Build an EnvMenu from (ip, data, dip, count) rows and link events."""
    budget = {}
    for ip, data, dip, count in newpkts:
        key = (ip, data, dip)
        budget[key] = budget.get(key, 0) + count
    script = []
    for ev in links:
        if isinstance(ev, (ConnectA, DisconnectA)):
            script.append(ev)
        else:
            op, a, b = ev
            if op == "connect":
                script.append(ConnectA(a, b))
            elif op == "disconnect":
                script.append(DisconnectA(a, b))
            else:
                raise ModelError(f"unknown link event {op!r}")
    return EnvMenu(FrozenMap({k: v for k, v in budget.items() if v > 0}),
                   tuple(script))


@dataclass(frozen=True)
class EnvState:
    remaining: FrozenMap  # (ip, data, dip) -> budget left (positive only)
    pos: int              # index of the next link event


class EnvNet:
    """A closed network paired with its finite environment.

    A state is a pair ``(network state, EnvState)``.  Its steps are the
    closed network's, each record built once, by a builder handed down
    to the closed layer that pairs the step's target with the
    environment's successor: the same ``EnvState`` unless the step is an
    injection or a link event.

    Environment states are interned: the successor of an environment
    state under an injection or a link event is computed once per
    (state, action) pair and shared, so every explored state holds one
    of a handful of ``EnvState`` objects, each digested once.  Both
    tables belong to this instance, so a run's caches go with it.
    """

    def __init__(self, net, env: EnvMenu):
        self.net = net
        self.env = env
        self._envs: dict = {}    # EnvState -> its one shared instance
        self._after: dict = {}   # (EnvState, action) -> shared successor
        env0 = self._intern(EnvState(env.newpkts, 0))
        self.init = frozenset((s, env0) for s in net.init)
        self._menus = {}

    def _intern(self, env_state: EnvState) -> EnvState:
        return self._envs.setdefault(env_state, env_state)

    def _env_after(self, env_s: EnvState, action) -> EnvState:
        key = (env_s, action)
        env2 = self._after.get(key)
        if env2 is None:
            if isinstance(action, NewpktA):
                k = (action.ip, action.data, action.dip)
                left = env_s.remaining[k]
                rem = (env_s.remaining.remove(k) if left == 1
                       else env_s.remaining.set(k, left - 1))
                env2 = EnvState(rem, env_s.pos)
            else:
                env2 = EnvState(env_s.remaining, env_s.pos + 1)
            env2 = self._after[key] = self._intern(env2)
        return env2

    def menu_for(self, env_state: EnvState) -> NetMenu:
        menu = self._menus.get(env_state)
        if menu is not None:
            return menu
        per_ip: dict = {}
        for (ip, data, dip) in env_state.remaining:
            per_ip.setdefault(ip, []).append(Newpkt(data, dip))
        links = self.env.links[env_state.pos:env_state.pos + 1]
        menu = NetMenu((), FrozenMap({ip: tuple(v)
                                      for ip, v in per_ip.items()}),
                       links)
        self._menus[env_state] = menu
        return menu

    def rich_steps(self, state) -> tuple:
        net_s, env_s = state
        after = self._env_after

        def attach(origin, detail, action, target):
            if isinstance(action, _ENV_ACTIONS):
                return RichStep(origin, detail, action,
                                (target, after(env_s, action)))
            return RichStep(origin, detail, action, (target, env_s))

        return self.net.rich_steps(net_s, self.menu_for(env_s), attach)


# the actions that consume the environment's menu
_ENV_ACTIONS = (NewpktA, ConnectA, DisconnectA)


@dataclass(frozen=True)
class TraceStep:
    origin: Optional[int]
    action: str   # rendered, for people
    key: int      # rank of the step among its source's steps, for replay
    digest: str   # digest of the state reached


@dataclass(frozen=True)
class Counterexample:
    """A path from an initial state to a state or step that fails a suite.

    The explorer makes counterexamples pending: each knows the branch
    ranks of its path, and so its ``depth``, and replays them into
    ``steps`` and ``digest`` the first time either is read, since a
    caller usually reports only the shortest of several.  A pending
    counterexample compares, hashes and prints like one built with every
    field given; until it is replayed it keeps its automaton alive.
    """

    suite: str
    kind: str        # "state" or "step"
    witness: tuple
    init_key: bytes  # digest of the initial state
    steps: tuple     # TraceStep path from the initial state
    digest: str      # digest of the violating (target) state

    @classmethod
    def _pending(cls, suite, kind, witness, init_key, ranks, replay):
        """One whose steps and digest ``replay()`` returns on demand."""
        cx = object.__new__(cls)
        for name, value in (("suite", suite), ("kind", kind),
                            ("witness", witness), ("init_key", init_key),
                            ("_ranks", ranks), ("_replay", replay)):
            cache_attr(cx, name, value)
        return cx

    def __getattr__(self, name):
        # Only reached for an attribute the instance lacks, that is the
        # steps and digest of a pending counterexample before its replay.
        replay = self.__dict__.get("_replay")
        if replay is None or name not in ("steps", "digest"):
            raise AttributeError(name)
        steps, dg = replay()
        cache_attr(self, "steps", steps)
        cache_attr(self, "digest", dg)
        del self.__dict__["_replay"]
        return self.__dict__[name]

    @property
    def depth(self) -> int:
        ranks = self.__dict__.get("_ranks")
        return len(self.steps) if ranks is None else len(ranks)


@dataclass
class ExplorationReport:
    states: int = 0
    transitions: int = 0
    depth: int = 0
    complete: bool = False
    capped: bool = False
    suites: tuple = ()
    counterexamples: tuple = ()
    # visited key -> state, filled only when ``keep_states``
    state_index: dict = field(default_factory=dict, repr=False)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _sorted_steps(auto, state) -> tuple:
    """The successors of ``state``, in the order search and replay share.

    The search records, for each new state, its parent and the rank of
    the step that reached it; ``_rebuild`` replays those ranks from the
    initial state.  Replay is sound because this order is a function of
    the state: the step functions list successors in the order they
    build them, which no hash seed affects.  Search and replay must both
    expand states here.
    """
    return auto.rich_steps(state)


def _rank_path(visited, key) -> tuple:
    """Parent chain of (init_key, branch ranks leading to key)."""
    ranks = []
    while True:
        parent, rank = visited[key]
        if parent is None:
            ranks.reverse()
            return key, ranks
        ranks.append(rank)
        key = parent


# A key's numbers are its digits in this radix.  It exceeds any number
# a run assigns (no run nears 2**40 subtrees), so a key is exact; its
# low bits are not zero, so every digit reaches the low bits of the
# key's hash, which a dict probes first.
_RADIX = (1 << 40) + 0x9E3779B1


def _numbering():
    """A fresh run's key function: a state's root parts' numbers, packed.

    A leaf, any part that is neither a tuple nor a ``SubnetS``, is
    numbered by its ``bdigest``; a subnet below the root by the pair of
    its children's numbers.  Numbers count up from 0 in the order the
    run meets new subtrees, so equal subtrees get equal numbers.  A key
    packs its numbers into one int in radix ``_RADIX`` (at most 40 bytes
    for three parts, against 64 for a tuple of them), which is exact
    because the states of one automaton share one shape.

    Numbers are cached on the subtree objects (every part of an explored
    state is a dataclass instance), past their frozen ``__setattr__`` and
    without touching their ``__dict__`` (see ``canon.cache_attr``).  Runs
    share those objects through automaton memos, so each cached number
    is tagged with its run's ``tag`` object and any other run's number
    is ignored.
    """
    tag = object()
    ids: dict = {}   # leaf digest or packed pair of numbers -> number

    def number(x) -> int:
        if getattr(x, "_st", None) is tag:
            return x._sn
        if type(x) is SubnetS:
            k = number(x.left) * _RADIX + number(x.right)
        else:
            k = bdigest(x)
        n = ids.get(k)
        if n is None:
            n = ids[k] = len(ids)
        cache_attr(x, "_sn", n)
        cache_attr(x, "_st", tag)
        return n

    def key(state) -> int:
        k = 0
        for part in state if type(state) is tuple else (state,):
            if type(part) is SubnetS:
                k = k * _RADIX + number(part.left)
                k = k * _RADIX + number(part.right)
            else:
                k = k * _RADIX + number(part)
        return k

    return key


def _rebuild(auto, state, ranks) -> tuple:
    """Replay ``ranks`` from ``state`` to recover a concrete trace.

    Returns the steps and the digest of the state reached.
    """
    steps = []
    for rank in ranks:
        r = _sorted_steps(auto, state)[rank]
        state = r.target
        steps.append(TraceStep(r.origin, render_action(r.detail), rank,
                               digest(value_key(state))))
    return tuple(steps), digest(value_key(state))


def explore(auto, *, allow=None, bound=None, state_cap=DEFAULT_STATE_CAP,
            state_suites=(), step_suites=(), stop_on_violation=True,
            keep_states=False) -> ExplorationReport:
    """Breadth-first reachability with invariant checking.

    ``allow`` filters transitions by their action.  ``bound`` limits the
    number of expansion layers (states deeper than it are not created).
    ``state_suites``/``step_suites`` are (name, check) pairs where a
    check returns a witness tuple or None.  Raises ResourceCapError when
    more than ``state_cap`` states would be stored.
    """
    suites = tuple(n for n, _ in state_suites) + tuple(n for n, _ in step_suites)
    report = ExplorationReport(suites=suites)
    skey = _numbering()
    visited: dict = {}            # key -> (parent key | None, branch rank)
    index = report.state_index    # key -> state, only when keep_states
    pending: list = []            # (suite, kind, witness, anchor key, extra)
    inits: dict = {}              # key -> initial state

    frontier = []
    for s in sorted(auto.init, key=value_key):
        k = skey(s)
        if k in visited:
            continue
        visited[k] = (None, None)
        inits[k] = s
        if keep_states:
            index[k] = s
        frontier.append((s, k))
        for name, check in state_suites:
            w = check(s)
            if w is not None:
                pending.append((name, "state", tuple(w), k, None))

    while frontier:
        if pending and stop_on_violation:
            break
        if bound is not None and report.depth >= bound:
            break
        next_frontier = []
        for state, key in frontier:
            for rank, r in enumerate(_sorted_steps(auto, state)):
                if allow is not None and not allow(r.action):
                    continue
                report.transitions += 1
                tkey = skey(r.target)
                is_new = tkey not in visited
                if is_new:
                    if len(visited) >= state_cap:
                        report.states = len(visited)
                        report.capped = True
                        report.counterexamples = _finish(
                            auto, inits, visited, pending)
                        raise ResourceCapError(report)
                    visited[tkey] = (key, rank)
                    if keep_states:
                        index[tkey] = r.target
                    next_frontier.append((r.target, tkey))
                for name, check in step_suites:
                    w = check(state, r, r.target)
                    if w is not None:
                        pending.append((name, "step", tuple(w), key, rank))
                if is_new:
                    for name, check in state_suites:
                        w = check(r.target)
                        if w is not None:
                            pending.append(
                                (name, "state", tuple(w), tkey, None))
        if next_frontier:
            report.depth += 1
        frontier = next_frontier
    else:
        report.complete = True

    report.states = len(visited)
    report.counterexamples = _finish(auto, inits, visited, pending)
    return report


def _finish(auto, inits, visited, pending) -> tuple:
    """Pending counterexamples (see ``Counterexample``) for ``pending``."""
    out = []
    for suite, kind, witness, anchor, extra in pending:
        init_key, ranks = _rank_path(visited, anchor)
        if extra is not None:
            ranks.append(extra)
        init = inits[init_key]
        ranks = tuple(ranks)
        out.append(Counterexample._pending(
            suite, kind, witness, bdigest(init), ranks,
            lambda init=init, ranks=ranks: _rebuild(auto, init, ranks)))
    return tuple(out)


def reachable(auto, allow=None, bound=None,
              state_cap=DEFAULT_STATE_CAP) -> frozenset:
    """All states reachable through allowed actions, within the bound."""
    report = explore(auto, allow=allow, bound=bound, state_cap=state_cap,
                     keep_states=True)
    return frozenset(report.state_index.values())


def invariant(auto, pred, allow=None, bound=None,
              state_cap=DEFAULT_STATE_CAP) -> ExplorationReport:
    """Does ``pred`` hold on every reachable state?"""
    check = lambda s: None if pred(s) else ("predicate false",)
    return explore(auto, allow=allow, bound=bound, state_cap=state_cap,
                   state_suites=[("invariant", check)])


def step_invariant(auto, pred, allow=None, bound=None,
                   state_cap=DEFAULT_STATE_CAP) -> ExplorationReport:
    """Does ``pred(state, action, successor)`` hold on every transition?"""
    check = (lambda s, r, t:
             None if pred(s, r.action, t) else ("predicate false",))
    return explore(auto, allow=allow, bound=bound, state_cap=state_cap,
                   step_suites=[("step-invariant", check)])


def check_theorem1(tree: NetTree, env: EnvMenu, cfg: VariantConfig = BASE,
                   suites=None, bound=None, state_cap=DEFAULT_STATE_CAP,
                   stop_on_violation=True, table=None) -> ExplorationReport:
    """Explore a closed network under ``env`` and check the full suite.

    The explored states carry the environment alongside the network;
    the monitor checks take such states as they are and look only at
    the network part.
    """
    if table is None:
        table = build_table(cfg)
    auto = EnvNet(closed_net(tree, cfg, table), env)
    return explore(auto, state_suites=state_checks(table, suites),
                   step_suites=step_checks(table, suites),
                   bound=bound, state_cap=state_cap,
                   stop_on_violation=stop_on_violation)


def replay(auto, cx: Counterexample):
    """Re-run a counterexample's step ranks; returns the violating state.

    Each step is taken by its rank among the current state's steps and
    must reach a state with the recorded digest, so a counterexample
    from another scenario, variant or encoding is rejected with a
    ModelError instead of being followed down some other path.
    """
    start = None
    for s in auto.init:
        if bdigest(s) == cx.init_key:
            start = s
            break
    if start is None:
        raise ModelError("counterexample initial state not in automaton")
    state = start
    for i, step in enumerate(cx.steps):
        steps = _sorted_steps(auto, state)
        if not (isinstance(step.key, int) and 0 <= step.key < len(steps)):
            raise ModelError(
                f"counterexample step {i} has no branch of rank {step.key!r}")
        state = steps[step.key].target
        if digest(value_key(state)) != step.digest:
            raise ModelError(
                f"counterexample does not replay at step {i}: "
                "reached a state with another digest")
    return state
