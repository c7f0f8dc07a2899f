"""Bounded explicit-state exploration of closed networks.

The environment is finitized by an :class:`EnvMenu`: a budget of
new-packet injections per (node, data, destination) triple and an
ordered script of topology events.  ``EnvNet`` pairs a closed network
automaton with that menu so exploration is over completely closed
systems.

``explore`` is a deterministic breadth-first search: initial states are
taken in the order the automata build them (``Automaton.init``), and
each state's successors in the order the step functions build them (see
:mod:`aodvcheck.awn`), so reports and counterexamples are reproducible
byte for byte, independent of hash seeds.  To keep millions of states
affordable, the search numbers states in the order it first reaches them
and keeps per state only its key, in a dict that maps it to ``None``,
and its parent's number and its branch rank, in two packed ``array``
columns indexed by that number (8 bytes a state); counterexample paths
are rebuilt afterwards by walking the parent column back to an initial
state and replaying the ranks from there.  A frontier holds only the
states themselves: each layer's states are numbered consecutively, so a
state's number is its layer's first number plus its place in the
frontier.  The layer at the depth bound is numbered and checked but not
kept, since it is never expanded.

A state's key packs the numbers of its root parts and of its
environment state (see ``_key``).  Each automaton numbers a subtree as
it interns it (see :mod:`aodvcheck.awn`), and ``EnvNet`` its
environment states, so a key costs a few attribute reads instead of a
digest of the whole state.  A number stands for one value among its
automaton's states, and reached states are equal exactly when they
digest equal (see ``canon.bdigest``), so keys are as exact as digests.

The search builds root states itself, and only new ones.  It expands a
state with ``awn.part_maker`` as the target maker, so the closed layer
hands each successor over as parts: the root's children (the acting
child's target beside the other child, or two targets for a step both
sides take), the environment successor, and the step's origin and
detail.  The parts are interned subtrees that already carry their
numbers, so the successor is keyed without being built; its root state
``(network, environment)`` is built only when the key is new, and about
three in four successors are not.  The suites see network states
and root parts, never the pair: a step suite takes the source network,
the step and the target's parts, and a state suite the network of a new
state (see ``monitor``).  Replay, ``_rebuild`` and the simulator expand
states with the default maker, which builds each target; the steps and
their order are the same either way, since one composition code builds
both.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

from .awn import (ConnectA, DisconnectA, ModelError, NetMenu, RichStep,
                  NewpktA, join_parts, part_maker, root_parts)
from .canon import (EMPTY_MAP, FrozenMap, bdigest, cache_attr, digest,
                    interned, quote, value_key)
from .messages import Newpkt
from .monitor import state_checks, step_checks
from .network import closed_net
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
    """An EnvMenu of (ip, data, dip, count) rows and Connect/Disconnect actions.

    Rows for one triple add up their counts; a triple left with no
    budget is dropped.
    """
    budget = {}
    for ip, data, dip, count in newpkts:
        key = (ip, data, dip)
        budget[key] = budget.get(key, 0) + count
    return EnvMenu(FrozenMap({k: v for k, v in budget.items() if v > 0}),
                   tuple(links))


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
    state under an injection is computed once per state and injected
    packet, and under a link event once per state, and shared, so every
    explored state holds one of a handful of ``EnvState`` objects.  Each
    is numbered, as its ``_n``, by its place in the table, for the
    explorer's keys.  Each environment state keeps its menu, built the
    first time it is asked for.  Environment states that offer equal
    menus need not share one object: each automaton projects a menu onto
    one object per value, and its step memo keys on that projection (see
    ``awn.NetMenu``).  The tables belong to this instance, so a run's
    caches go with it.
    """

    def __init__(self, net, env: EnvMenu):
        self.net = net
        self.env = env
        self._envs: dict = {}    # EnvState -> its one shared instance
        self._after: dict = {}   # ``_env_after`` key -> successor
        env0 = interned(self._envs, EnvState(env.newpkts, 0))
        self.init = tuple((s, env0) for s in net.init)

    def _env_after(self, env_s: EnvState, action) -> EnvState:
        # a link event only advances the script, so it is keyed by the
        # environment's number alone; an injection by the number and
        # the (ip, data, dip) it spends
        if isinstance(action, NewpktA):
            key = (env_s._n, action.ip, action.data, action.dip)
        else:
            key = env_s._n
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
            env2 = self._after[key] = interned(self._envs, env2)
        return env2

    def menu_for(self, env_state: EnvState) -> NetMenu:
        """The menu of the offers of ``env_state``, built once per state."""
        menu = getattr(env_state, "_menu", None)
        if menu is not None:
            return menu
        per_ip: dict = {}
        for (ip, data, dip) in env_state.remaining:
            per_ip.setdefault(ip, []).append(Newpkt(data, dip))
        newpkts = FrozenMap({ip: tuple(v) for ip, v in per_ip.items()})
        links = self.env.links[env_state.pos:env_state.pos + 1]
        menu = NetMenu(newpkts, links)
        cache_attr(env_state, "_menu", menu)
        return menu

    def rich_steps(self, state, make=None) -> tuple:
        """The steps of ``state``; ``make`` is handed to the closed layer.

        Each record's target is ``(network target, environment
        successor)``, the network target made by ``make``: a plain root
        state by default, or its parts under ``part_maker``.
        """
        net_s, env_s = state
        after = self._env_after

        def attach(origin, detail, target):
            if isinstance(detail, _ENV_ACTIONS):
                target = (target, after(env_s, detail))
            else:
                target = (target, env_s)
            return _record(RichStep, (origin, detail, target))

        return self.net.rich_steps(net_s, self.menu_for(env_s), attach, make)


# the details of the steps that consume the environment's menu
_ENV_ACTIONS = (NewpktA, ConnectA, DisconnectA)

# ``_record(RichStep, fields)`` is ``RichStep(*fields)`` without the
# Python-level ``__new__`` of a named tuple (it is what ``_make`` does);
# the environment wrapper builds one record per explored transition
_record = tuple.__new__


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
    # packed key (see ``_key``) -> state, for every state the search
    # numbered, filled only when ``keep_states``
    state_index: dict = field(default_factory=dict, repr=False)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _sorted_steps(auto, state, make=None) -> tuple:
    """The successors of ``state``, in the order search and replay share.

    The search records, for each new state, its parent and the rank of
    the step that reached it; ``_rebuild`` replays those ranks from the
    initial state.  Replay is sound because this order is a function of
    the state: the step functions list successors in the order they
    build them, which no hash seed affects, and ``make`` changes only
    how each target is handed over (see ``EnvNet.rich_steps``), not which
    targets there are or their order.  Nor do the automata's numbers,
    which only name states.  Search and replay must both expand states
    here.
    """
    return auto.rich_steps(state, make)


def _rank_path(parents, ranks, index) -> tuple:
    """The initial state's number and the branch ranks leading to ``index``.

    ``parents`` and ``ranks`` are the search's columns; an initial state
    is its own parent.
    """
    path = []
    while True:
        parent = parents[index]
        if parent == index:
            path.reverse()
            return index, path
        path.append(ranks[index])
        index = parent


# A key's numbers are its digits in this radix.  It exceeds any number
# an automaton assigns (none nears 2**40 states), so a key is exact; its
# low bits are not zero, so every digit reaches the low bits of the
# key's hash, which a dict probes first.
_RADIX = (1 << 40) + 0x9E3779B1


def _key(parts, env) -> int:
    """The key of the state made of root ``parts`` and ``env``.

    It packs the parts' numbers and the environment state's, in that
    order, into one int in radix ``_RADIX`` (at most 40 bytes for three
    numbers, against 64 for a tuple of them).  Each number is unique
    among its automaton's states, and each place in a key belongs to one
    automaton, so keys are exact.
    """
    k = 0
    for part in parts:
        k = k * _RADIX + part._n
    return k * _RADIX + env._n


def _walk(auto, state, ranks):
    """Take the step of each of ``ranks`` in turn, from ``state`` on.

    Yields ``(source, record, digest)`` per step, the digest being that
    of the state the step reaches, which the next step starts from.  A
    rank that names no step raises a ModelError.
    """
    for i, rank in enumerate(ranks):
        steps = _sorted_steps(auto, state)
        if not (isinstance(rank, int) and 0 <= rank < len(steps)):
            raise ModelError(
                f"counterexample step {i} has no branch of rank "
                f"{quote(rank)}")
        r = steps[rank]
        yield state, r, digest(value_key(r.target))
        state = r.target


def _rebuild(auto, state, ranks) -> tuple:
    """Replay ``ranks`` from ``state`` to recover a concrete trace.

    Returns the steps and the digest of the state reached.
    """
    steps = tuple(TraceStep(r.origin, render_action(r.detail), rank, dg)
                  for rank, (_, r, dg) in zip(ranks,
                                              _walk(auto, state, ranks)))
    return steps, steps[-1].digest if steps else digest(value_key(state))


def explore(auto, *, bound=None, state_cap=DEFAULT_STATE_CAP,
            state_suites=(), step_suites=(), stop_on_violation=True,
            keep_states=False, on_layer=None) -> ExplorationReport:
    """Breadth-first reachability with invariant checking.

    ``auto`` is an ``EnvNet``: its states are ``(network, environment)``
    pairs, and every transition is taken.  ``bound`` limits the number
    of expansion layers (states deeper than it are not created; those at
    it are checked but not expanded).
    ``state_suites``/``step_suites`` are (name, check) pairs where a
    check returns a witness tuple or None.  A state check is called on a
    state's network, ``check(net)``; a step check as ``check(net, step,
    after)``, with the source's network and the target's root parts (see
    ``monitor.step_checks``).  Raises ResourceCapError when more than
    ``state_cap`` states would be stored.  ``on_layer``, if given, is
    called with the report each time a layer of new states is finished;
    its ``depth``, ``states`` and ``transitions`` then count that layer.

    Each state is expanded with ``part_maker``, so its successors come
    as parts: every step's target is ``(root parts, environment)``.  The
    search keys a successor by those parts and builds it only when the
    key is new.  Per transition the step suites run first, in their
    order, and then the state suites of a new target.
    """
    suites = tuple(n for n, _ in state_suites) + tuple(n for n, _ in step_suites)
    report = ExplorationReport(suites=suites)
    # The store.  States are numbered from 0 in the order they are first
    # reached, which is the order of ``visited``; the columns are indexed
    # by those numbers.
    visited: dict = {}            # key -> None
    parents = array("I")          # number -> parent's (own, if initial)
    ranks = array("I")            # number -> rank of the step reaching it
    index = report.state_index    # key -> state, only when keep_states
    pending: list = []            # (suite, kind, witness, anchor number, extra)
    inits: list = []              # number -> initial state

    frontier = []                 # the layer to expand, in number order
    for s in auto.init:
        k = _key(root_parts(s[0]), s[1])
        if k in visited:
            continue
        n = len(visited)
        visited[k] = None
        parents.append(n)
        ranks.append(0)
        inits.append(s)
        if keep_states:
            index[k] = s
        frontier.append(s)
        for name, check in state_suites:
            w = check(s[0])
            if w is not None:
                pending.append((name, "state", tuple(w), n, None))

    make = part_maker(auto.net)
    first = 0                     # the number of the frontier's first state
    layer = len(visited)          # how many states the last layer has
    while layer:
        if pending and stop_on_violation:
            break
        if bound is not None and report.depth >= bound:
            break
        # the layer at the bound is numbered and checked, never expanded
        keep = bound is None or report.depth + 1 < bound
        next_first = len(visited)
        next_frontier = []
        for source, state in enumerate(frontier, first):
            net = state[0]
            steps = _sorted_steps(auto, state, make)
            for rank, r in enumerate(steps):
                report.transitions += 1
                parts, env = r.target
                tkey = _key(parts, env)
                is_new = tkey not in visited
                if is_new:
                    target = len(visited)
                    if target >= state_cap:
                        report.states = target
                        report.capped = True
                        report.counterexamples = _finish(
                            auto, inits, parents, ranks, pending)
                        raise ResourceCapError(report)
                    visited[tkey] = None
                    parents.append(source)
                    ranks.append(rank)
                    tnet = join_parts(parts)
                    if keep:
                        next_frontier.append((tnet, env))
                    if keep_states:
                        index[tkey] = (tnet, env)
                for name, check in step_suites:
                    w = check(net, r, parts)
                    if w is not None:
                        pending.append((name, "step", tuple(w), source, rank))
                if is_new:
                    for name, check in state_suites:
                        w = check(tnet)
                        if w is not None:
                            pending.append(
                                (name, "state", tuple(w), target, None))
        layer = len(visited) - next_first
        if layer:
            report.depth += 1
            if on_layer is not None:
                report.states = len(visited)
                on_layer(report)
        first, frontier = next_first, next_frontier
    else:
        report.complete = True

    report.states = len(visited)
    report.counterexamples = _finish(auto, inits, parents, ranks, pending)
    return report


def _finish(auto, inits, parents, ranks, pending) -> tuple:
    """Pending counterexamples (see ``Counterexample``) for ``pending``."""
    out = []
    for suite, kind, witness, anchor, extra in pending:
        start, path = _rank_path(parents, ranks, anchor)
        if extra is not None:
            path.append(extra)
        init = inits[start]
        path = tuple(path)
        out.append(Counterexample._pending(
            suite, kind, witness, bdigest(init), path,
            lambda init=init, path=path: _rebuild(auto, init, path)))
    return tuple(out)


def reachable(auto, bound=None, state_cap=DEFAULT_STATE_CAP) -> frozenset:
    """All states reachable within the bound."""
    report = explore(auto, bound=bound, state_cap=state_cap, keep_states=True)
    return frozenset(report.state_index.values())


def invariant(auto, pred, bound=None,
              state_cap=DEFAULT_STATE_CAP) -> ExplorationReport:
    """Does ``pred`` hold on every reachable state?

    ``pred`` is given each state's network, not its environment.
    """
    check = lambda net: None if pred(net) else ("predicate false",)
    return explore(auto, bound=bound, state_cap=state_cap,
                   state_suites=[("invariant", check)])


def step_invariant(auto, pred, bound=None,
                   state_cap=DEFAULT_STATE_CAP) -> ExplorationReport:
    """Does ``pred(net, action, successor)`` hold on every transition?

    ``net`` and ``successor`` are the network states of the transition's
    source and target, without their environments.  ``action`` is what
    the closed network shows for the step (``ClosedAutomaton.shown``):
    Tau for a cast or a unicast failure, and the step's detail for any
    other.
    """
    shown = auto.net.shown
    check = (lambda net, r, after:
             None if pred(net, shown(r.detail), join_parts(after))
             else ("predicate false",))
    return explore(auto, bound=bound, state_cap=state_cap,
                   step_suites=[("step-invariant", check)])


def check_theorem1(nodes, env: EnvMenu, cfg: VariantConfig = BASE,
                   suites=None, bound=None, state_cap=DEFAULT_STATE_CAP,
                   stop_on_violation=True,
                   on_layer=None) -> ExplorationReport:
    """Explore a closed network under ``env`` and check the full suite.

    ``nodes`` is the network's (ip, neighbours) pairs (see
    ``network.build_net``).  The explored states carry the environment
    alongside the network; the monitor checks see only the network
    part.  ``on_layer`` is passed on to ``explore``.
    """
    table = build_table(cfg)
    auto = EnvNet(closed_net(nodes, cfg, table), env)
    return explore(auto, state_suites=state_checks(table, suites),
                   step_suites=step_checks(table, suites),
                   bound=bound, state_cap=state_cap,
                   stop_on_violation=stop_on_violation, on_layer=on_layer)


def replay(auto, cx: Counterexample):
    """Re-run a counterexample's step ranks; returns the violating state.

    Each step is taken by its rank among the current state's steps; it
    must be taken by the recorded origin, render as the recorded action
    and reach a state with the recorded digest, so a counterexample
    from another scenario, variant or encoding, or one whose story was
    edited, is rejected with a ModelError instead of being followed down
    some other path.
    """
    source, r, _ = replay_end(auto, cx)
    return source if r is None else r.target


def replay_end(auto, cx: Counterexample) -> tuple:
    """Where ``replay`` ends: ``(source, record, digest)`` of the last step.

    The digest is that of the state the path reaches.  A path of no
    steps ends at ``(initial state, None, its digest)``.
    """
    start = None
    for s in auto.init:
        if bdigest(s) == cx.init_key:
            start = s
            break
    if start is None:
        raise ModelError("counterexample initial state not in automaton")
    end = None
    walk = _walk(auto, start, [step.key for step in cx.steps])
    for i, (step, end) in enumerate(zip(cx.steps, walk)):
        _, r, dg = end
        action = render_action(r.detail)
        if (r.origin, action) != (step.origin, step.action):
            raise ModelError(
                f"counterexample step {i} is {quote(step.action)} at origin "
                f"{quote(step.origin)}, but its rank gives {action!r} at "
                f"origin {r.origin!r}")
        if dg != step.digest:
            raise ModelError(
                f"counterexample does not replay at step {i}: "
                "reached a state with another digest")
    return end or (start, None, digest(value_key(start)))
