"""Process-calculus core: terms, labels, actions and step semantics.

The model is layered the way wireless protocol algebras usually are:

  1. sequential process terms operating on a local data state,
  2. a local parallel composition (protocol process beside a message
     queue) where the left component's receives synchronize with the
     right component's sends,
  3. a network node wrapping one such pair with an address and a set of
     reachable neighbours,
  4. parallel composition of node subnets, where a cast by one side is
     delivered synchronously to every in-range node of the other side,
  5. a closed network, which internalizes casts and forbids stray
     arrivals.

States at every layer are immutable values.  The process layers' ``steps``
map a state (plus a finite environment menu) to a tuple of (action,
successor) pairs; the network layers' ``rich_steps`` map it to a tuple of
``RichStep`` records, which add the acting node and the action's
informative shape.  Either tuple lists steps in the order the rules build
them: choice branches left to right, the protocol before its queue, the
left subnet before the right, and menu entries in menu order.  A step the
process rules build twice is kept once, at its first position.  The tuple
is thus the semantics' step set in an order that depends on no hash seed
and no object identity.

Node and subnet states are hash-consed below the root: each automaton
interns the states it builds, so equal subtree states are one object
(see ``_MEMO_CAP``), and numbers each state by its place in its table
as it first interns it.  A state's number, its ``_n``, stands for its
value among the automaton's states, and so for its ``bdigest`` value,
since reached states are equal exactly when they digest equal (see
``ProcState``).  Node states are interned by value, subnet states by the
pair of their children's numbers.  The network layers' memos key on
these numbers and on the identity of the menu's projection onto the
subtree's addresses (see ``NetMenu``), and the monitors' per-subtree
caches hold one entry per distinct value.  Interning changes no step,
order or digest, only which object stands for a value.  The process
layer's memo keys on its states and menus by value (``SeqAutomaton``).

The composition rules of the network layers are written once, in the
node's and the subnet's ``_rich_steps``.  These take a record builder,
called as ``build(origin, detail, action, target)`` for each step they
compose, and a target maker, called as ``make(left, right)`` by a subnet
and ``make(ip, inner, nbrs)`` by a node.  Below the root the builder is
``RichStep`` itself and the maker the automaton's interning one.  The
layers above the root hand theirs down instead of copying the records
they get back: the closed network passes a builder that relabels casts
as Tau, and an explorer's environment wrapper one that also pairs each
target with its environment successor, so each step of the closed
system is built exactly once.

Root targets are built by whoever calls the closed network.  By default
a subnet root's maker is ``SubnetS`` and a node root's its automaton's
interning one, so a caller such as the simulator or a counterexample
replay gets plain ``SubnetS`` targets over interned children, or
interned ``NodeS`` targets.  A search passes ``part_maker(closed)``
instead, and gets each target as its parts (``root_parts``): a subnet's
two children, or a node state whole.  Either way every part is an
interned subtree that carries its number, so the search can key a
successor by its parts' numbers and build the root state
(``join_parts``) only when the key is new.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .canon import EMPTY_MAP, FrozenMap, cache_attr, struct_digest, value_key
from .canon import bdigest  # noqa: F401  (bench/spans.py patches this name)

EMPTY = frozenset()


class ModelError(Exception):
    """Raised for ill-formed process tables, terms or network trees."""


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class Label:
    """A control location: process name plus offset within its body."""

    pname: str
    offset: int

    def __str__(self) -> str:
        return f"{self.pname}-:{self.offset}"


# ---------------------------------------------------------------------------
# process terms
#
# Terms compare by identity: each process body is built (and labelled)
# exactly once, so two equal-looking terms are the same object.  A call
# is the exception: it compares by the name it calls, since a body may
# call one process from many places and every such call stands for the
# same control location.  Guard tests return a finite iterable of
# successor data states; assignments and message builders are plain
# functions of the data state.


@dataclass(eq=False, frozen=True)
class Assign:
    update: Callable[[Any], Any]
    cont: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Guard:
    test: Callable[[Any], Iterable[Any]]
    cont: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Broadcast:
    msg: Callable[[Any], Any]
    cont: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Groupcast:
    dests: Callable[[Any], frozenset]
    msg: Callable[[Any], Any]
    cont: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Unicast:
    dest: Callable[[Any], int]
    msg: Callable[[Any], Any]
    ok: Optional["ProcessTerm"] = None
    fail: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Send:
    msg: Callable[[Any], Any]
    cont: Optional["ProcessTerm"] = None
    update: Optional[Callable[[Any], Any]] = None  # applied when the send fires
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Receive:
    update: Callable[[Any, Any], Any]  # (message, data) -> data
    cont: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Deliver:
    data: Callable[[Any], Any]
    cont: Optional["ProcessTerm"] = None
    label: Optional[Label] = None


@dataclass(eq=False, frozen=True)
class Choice:
    left: "ProcessTerm"
    right: "ProcessTerm"


@dataclass(frozen=True)
class Call:
    name: str


ProcessTerm = (
    Assign | Guard | Broadcast | Groupcast | Unicast | Send | Receive
    | Deliver | Choice | Call
)


def choice(*terms: ProcessTerm) -> ProcessTerm:
    """Right-associated n-ary choice."""
    if not terms:
        raise ModelError("choice needs at least one branch")
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = Choice(t, out)
    return out


def seq(*parts: ProcessTerm) -> ProcessTerm:
    """Chain prefixes into a sequence ending in the last part.

    All parts but the last must have an unset continuation; builders
    create prefixes bare and let this fill them in.
    """
    *prefixes, tail = parts
    out = tail
    for p in reversed(prefixes):
        if isinstance(p, (Choice, Call, Unicast)) or p.cont is not None:
            raise ModelError(f"cannot chain through {type(p).__name__}")
        out = replace(p, cont=out)
    return out


def subterms(body: ProcessTerm):
    """Every term of ``body``, depth first, left to right; calls are leaves."""
    stack = [body]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Choice):
            stack += [t.right, t.left]
        elif isinstance(t, Unicast):
            stack += [c for c in (t.fail, t.ok) if c is not None]
        elif not isinstance(t, Call) and t.cont is not None:
            stack.append(t.cont)


def _check_complete(pname: str, body: ProcessTerm) -> None:
    for t in subterms(body):
        if isinstance(t, Unicast):
            if t.ok is None or t.fail is None:
                raise ModelError(f"{pname}: unicast without both branches")
        elif not isinstance(t, (Choice, Call)) and t.cont is None:
            raise ModelError(
                f"{pname}: {type(t).__name__} prefix without continuation")


def label_process(pname: str, body: ProcessTerm) -> ProcessTerm:
    """Assign control-location labels to every prefix of ``body``.

    Labels number the control states of the process, in left-to-right
    traversal order.  All branches of a choice start at the same
    location, so their head prefixes share one label; every
    continuation gets a fresh offset.  Calls carry no label.  Offsets
    are contiguous from 0.
    """
    _check_complete(pname, body)

    def walk(t: ProcessTerm, entry: int, fresh: int):
        # returns (labelled term, next fresh offset, consumed entry?)
        if isinstance(t, Call):
            return t, fresh, False
        if isinstance(t, Choice):
            left, fresh, c1 = walk(t.left, entry, fresh)
            right, fresh, c2 = walk(t.right, entry, fresh)
            return Choice(left, right), fresh, c1 or c2
        lbl = Label(pname, entry)
        if isinstance(t, Unicast):
            cur = fresh
            ok, f2, used = walk(t.ok, cur, cur + 1)
            cur = f2 if used else cur
            fail, f3, used = walk(t.fail, cur, cur + 1)
            cur = f3 if used else cur
            return replace(t, ok=ok, fail=fail, label=lbl), cur, True
        cont, f2, used = walk(t.cont, fresh, fresh + 1)
        return replace(t, cont=cont, label=lbl), f2 if used else fresh, True

    out, _, _ = walk(body, 0, 1)
    return out


class ProcessTable:
    """Named process bodies; the recursion environment for Call."""

    def __init__(self, bodies: dict[str, ProcessTerm]):
        self._bodies = dict(bodies)
        self._label_cache: dict[int, tuple] = {}
        for name, body in self._bodies.items():
            _check_complete(name, body)
            for t in subterms(body):
                if isinstance(t, Call) and t.name not in self._bodies:
                    raise ModelError(
                        f"process {name!r} calls undeclared process {t.name!r}"
                    )

    def __getitem__(self, name: str) -> ProcessTerm:
        try:
            return self._bodies[name]
        except KeyError:
            raise ModelError(f"undeclared process {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._bodies

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._bodies))

    def labels(self, term: ProcessTerm, _active: frozenset = EMPTY) -> frozenset:
        """Current control location(s) of ``term``.

        Prefixes contribute their head label, a choice the union of its
        branches, a call the entry location(s) of the callee.  Recursive
        calls that are still being resolved contribute nothing, which
        yields the least fixpoint.
        """
        key = id(term)
        if not _active and key in self._label_cache:
            return self._label_cache[key][1]
        if isinstance(term, Choice):
            out = self.labels(term.left, _active) | self.labels(term.right, _active)
        elif isinstance(term, Call):
            if term.name in _active:
                out = EMPTY
            else:
                out = self.labels(self[term.name], _active | {term.name})
        else:
            if term.label is None:
                raise ModelError("term has no label; run label_process first")
            out = frozenset([term.label])
        if not _active:
            self._label_cache[key] = (term, out)
        return out

    def all_labels(self) -> frozenset:
        """Every label occurring anywhere in the table."""
        return frozenset(
            t.label for body in self._bodies.values() for t in subterms(body)
            if not isinstance(t, (Choice, Call)) and t.label is not None)


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class TauA:
    def __repr__(self) -> str:
        return "Tau"


TAU = TauA()


@dataclass(frozen=True)
class BroadcastA:
    msg: Any


@dataclass(frozen=True)
class GroupcastA:
    dests: frozenset
    msg: Any


@dataclass(frozen=True)
class UnicastA:
    dest: int
    msg: Any


@dataclass(frozen=True)
class UnicastFailA:
    dest: int


@dataclass(frozen=True)
class SendA:
    msg: Any


@dataclass(frozen=True)
class ReceiveA:
    msg: Any


@dataclass(frozen=True)
class DeliverA:
    data: Any


@dataclass(frozen=True)
class CastA:
    dests: frozenset
    msg: Any


@dataclass(frozen=True)
class ArriveA:
    heard: frozenset
    missed: frozenset
    msg: Any

    def __post_init__(self):
        if self.heard & self.missed:
            raise ModelError("arrive: hearing and missing sets overlap")


@dataclass(frozen=True)
class ConnectA:
    a: int
    b: int


@dataclass(frozen=True)
class DisconnectA:
    a: int
    b: int


@dataclass(frozen=True)
class NewpktA:
    ip: int
    data: Any
    dip: int


@dataclass(frozen=True)
class DeliverAtA:
    ip: int
    data: Any


Action = (
    TauA | BroadcastA | GroupcastA | UnicastA | UnicastFailA | SendA | ReceiveA
    | DeliverA | CastA | ArriveA | ConnectA | DisconnectA | NewpktA | DeliverAtA
)


# ---------------------------------------------------------------------------
# layer 1: sequential processes


@dataclass(frozen=True)
class ProcState:
    """A sequential process state: data valuation plus control term."""

    data: Any
    term: ProcessTerm
    table: "ProcessTable" = field(compare=False, repr=False, default=None)

    # Both encodings use the control locations the term stands for,
    # and cache the results on the instance; ``value_key`` and
    # ``bdigest`` cannot read a term, which holds functions.  Two states
    # of one table compare equal exactly when they encode equal: a call
    # compares by name, ``label_process`` gives every other prefix but a
    # choice's branch heads a location of its own, and a process is
    # never at a branch head, only at the choice.  A node automaton
    # numbers its states by value on the strength of this.
    def _locs(self) -> tuple:
        return tuple(
            sorted((l.pname, l.offset) for l in self.table.labels(self.term))
        )

    def canon_key(self) -> tuple:
        return ("ProcState", value_key(self.data), self._locs())

    def canon_digest(self) -> bytes:
        return struct_digest(b"ProcState\0", (self.data, self._locs()))


def seq_steps(table: ProcessTable, state: ProcState, menu=()) -> tuple:
    """One-step successors of a sequential process state.

    ``menu`` lists the messages offered for Receive; the composition
    layers narrow it to whatever the context can actually send.  Calls
    unfold transparently (they consume no step).
    """
    out: dict = {}  # insertion-ordered set of (action, successor)
    _seq_into(table, state.data, state.term, menu, out, ())
    return tuple(out)


def _seq_into(table, xi, term, menu, out, unfolding):
    if isinstance(term, Assign):
        out[TAU, ProcState(term.update(xi), term.cont, table)] = None
    elif isinstance(term, Guard):
        for xi2 in term.test(xi):
            out[TAU, ProcState(xi2, term.cont, table)] = None
    elif isinstance(term, Broadcast):
        out[BroadcastA(term.msg(xi)), ProcState(xi, term.cont, table)] = None
    elif isinstance(term, Groupcast):
        out[GroupcastA(frozenset(term.dests(xi)), term.msg(xi)),
            ProcState(xi, term.cont, table)] = None
    elif isinstance(term, Unicast):
        dest = term.dest(xi)
        out[UnicastA(dest, term.msg(xi)), ProcState(xi, term.ok, table)] = None
        out[UnicastFailA(dest), ProcState(xi, term.fail, table)] = None
    elif isinstance(term, Send):
        xi2 = xi if term.update is None else term.update(xi)
        out[SendA(term.msg(xi)), ProcState(xi2, term.cont, table)] = None
    elif isinstance(term, Receive):
        for m in menu:
            out[ReceiveA(m), ProcState(term.update(m, xi), term.cont, table)] = None
    elif isinstance(term, Deliver):
        out[DeliverA(term.data(xi)), ProcState(xi, term.cont, table)] = None
    elif isinstance(term, Choice):
        _seq_into(table, xi, term.left, menu, out, unfolding)
        _seq_into(table, xi, term.right, menu, out, unfolding)
    elif isinstance(term, Call):
        if term.name in unfolding:
            raise ModelError(f"unguarded recursion through {term.name!r}")
        _seq_into(table, xi, table[term.name], menu, out, unfolding + (term.name,))
    else:  # pragma: no cover
        raise ModelError(f"unknown term {term!r}")


class Automaton:
    """A state machine with a finite, menu-driven step function.

    ``init`` is a tuple of the initial states in the order they were
    built, a product in left-major order; the explorer numbers them in
    that order, so it sorts nothing.
    """

    init: tuple

    def steps(self, state, menu=()) -> tuple:
        raise NotImplementedError


class SeqAutomaton(Automaton):
    """A sequential process of one table; ``steps`` memoizes ``seq_steps``.

    The memo keys on the state and the menu by value.  Every state this
    automaton sees carries its table, and equal states of one table
    stand for one control location over equal data (see ``ProcState``),
    so a hit returns the steps a fresh call would build, in their order.
    It stops growing at ``_MEMO_CAP`` entries.
    """

    def __init__(self, table: ProcessTable, init: tuple):
        self.table = table
        self.init = init
        self._steps_memo: dict = {}

    def steps(self, state, menu=()) -> tuple:
        key = (state, menu)
        out = self._steps_memo.get(key)
        if out is None:
            out = seq_steps(self.table, state, menu)
            if len(self._steps_memo) < _MEMO_CAP:
                self._steps_memo[key] = out
        return out


# ---------------------------------------------------------------------------
# layer 2: protocol process beside its message queue


class ParAutomaton(Automaton):
    """Left component's receives feed on right component's sends.

    A Receive(m) of the left and a Send(m) of the right synchronize to
    an internal step.  Every other action of the left except Receive,
    and of the right except Send, interleaves.
    """

    def __init__(self, left: Automaton, right: Automaton):
        self.left = left
        self.right = right
        self.init = tuple((l, r) for l in left.init for r in right.init)

    def steps(self, state, menu=()) -> tuple:
        l, r = state
        right_steps = self.right.steps(r, menu)
        sendable = tuple(dict.fromkeys(
            a.msg for a, _ in right_steps if isinstance(a, SendA)
        ))
        left_steps = self.left.steps(l, sendable)
        out: dict = {}
        for a, l2 in left_steps:
            if isinstance(a, ReceiveA):
                for b, r2 in right_steps:
                    if isinstance(b, SendA) and b.msg == a.msg:
                        out[TAU, (l2, r2)] = None
            else:
                out[a, (l2, r)] = None
        for b, r2 in right_steps:
            if not isinstance(b, SendA):
                out[b, (l, r2)] = None
        return tuple(out)


# ---------------------------------------------------------------------------
# network layers
#
# The environment menu for the network layers bundles three finite
# supplies: messages that may arrive from surrounding casts, new-packet
# injections allowed per node, and topology events under consideration.


@dataclass(frozen=True, eq=False)
class NetMenu:
    """What a layer's context offers it: see the comment above.

    Menus compare and hash by identity.  Each node and subnet below the
    root maps a menu it is given, by identity, to one object per value
    of its projection: the messages and links, and the new-packet
    budgets of the subtree's own addresses only, which is all that a
    subtree reads.  The step memos key on ``(state number, projection)``,
    and an identity key hashes in C, with no call into the menu or its
    link events.  A menu equal in value to one seen before, or differing
    only in another node's budget, meets the same memo entries; a new
    menu object costs one projection per automaton.  A run hands out one
    object per menu value (``EnvNet.menu_for``), and the closed layer one
    stripped menu per menu it is given.
    """

    messages: tuple = ()
    newpkts: FrozenMap = EMPTY_MAP  # ip -> tuple of new-packet messages
    links: tuple = ()               # ConnectA / DisconnectA actions


EMPTY_MENU = NetMenu()


@dataclass(frozen=True)
class NodeS:
    ip: int
    inner: Any
    nbrs: frozenset


@dataclass(frozen=True)
class SubnetS:
    left: Any
    right: Any


class RichStep(NamedTuple):
    """A network transition with provenance for traces and drivers.

    ``action`` is the action visible at this layer; ``detail`` keeps the
    informative shape (for instance the Cast that a closed network
    reports as Tau) and ``origin`` the address of the acting node, when
    there is one.  A record is a tuple, so it is never changed once
    built, and the composition rules unpack it as one.
    """

    origin: Optional[int]
    detail: Action
    action: Action
    target: Any

    # The simulator orders sibling steps by this key, with steps that no
    # node takes (origin None) first, as origin -1.  The target is left
    # out: ``simulate.sibling_order`` keys a target only where two
    # siblings tie here.
    def canon_key(self) -> tuple:
        return (
            "step",
            -1 if self.origin is None else self.origin,
            value_key(self.detail),
            value_key(self.action),
        )


class NetAutomaton(Automaton):
    """Shared shape of node, subnet and closed automata."""

    addresses: frozenset

    def rich_steps(self, state, menu: NetMenu = EMPTY_MENU) -> tuple:
        raise NotImplementedError

    def steps(self, state, menu: NetMenu = EMPTY_MENU) -> tuple:
        return tuple(dict.fromkeys(
            (r.action, r.target) for r in self.rich_steps(state, menu)))

    def cast_delivery(self, state, msg, dests: frozenset) -> tuple:
        """States after ``msg`` is cast with range ``dests``.

        Every in-range node must take the message (empty result means
        the cast is blocked); out-of-range nodes are untouched.
        """
        raise NotImplementedError


def _is_newpkt(msg: Any) -> bool:
    return getattr(msg, "is_newpkt", False)


# Step sets are memoized below the root.  A node's local state repeats
# across a huge number of global states, and so does an inner subnet's:
# its steps depend only on its own state and the part of the menu its
# context offers it (``MemoNetAutomaton._project``), which is the
# compositionality the paper's invariants are lifted by.  Exploration of
# a small network touches far fewer distinct (subtree state, projected
# menu) pairs than global states, so a per-automaton cache pays for
# itself immediately.  Each process automaton memoizes its steps by
# (process state, menu) too: a node steps its protocol and queue again
# whenever it meets a new menu or cast, and most of those process steps
# were built before (``SeqAutomaton``).  The root (the network a
# ``ClosedAutomaton`` closes) is expanded through the unmemoized body:
# a search expands each root state exactly once, so a root memo would
# only keep every expanded state's successors alive.
#
# The states that go into these memos are interned: each node and
# subnet automaton keeps a table of the states it has built (its
# initial states, step targets and cast deliveries), and a new state
# equal to one of them is replaced by it before anything digests it or
# caches on it.  A subtree value is then one object, digested at most
# once and carrying one set of the monitors' caches, however many
# global states share it.  Each new canonical state is numbered by its
# place as it enters its table, and the memos key on that number,
# ``_n``, and on the menu object, which compares by identity (see
# ``NetMenu``), so a memo lookup hashes two small values in C.  Node
# states are interned and numbered by value, which tells them apart as
# their digests would (see ``ProcState``); subnet states by the pair of
# their children's numbers, which are set already.  Subnet root targets
# are built plain: a table at the root would keep every explored state
# alive, as a root memo would, so that table holds only its initial
# states.  A node root interns its targets, so that they carry numbers
# too; a one-node network has few states.  The tables have no cap,
# since the numbers must be exact; each memo, and each map of menus to
# their projections, stops growing at this many entries, which only
# memory and time depend on.
_MEMO_CAP = 1 << 20

# actions of one side of a subnet that the other side takes no part in
_LOCAL = (TauA, DeliverAtA, NewpktA)


class MemoNetAutomaton(NetAutomaton):
    """A node or subnet layer: ``rich_steps`` memoizes ``_rich_steps``.

    Its states are interned in ``_states``, its table of canonical
    states, and each carries its number as ``_n`` (see ``_MEMO_CAP``).
    ``rich_steps`` first projects the menu onto the layer's addresses
    (see ``NetMenu``), and keys its memo and steps its body, and so a
    subnet's children, on that projection.  ``_rich_steps`` interns the
    targets it builds unless it is given another ``make``, as the closed
    layer does for a subnet root.
    """

    _steps_memo: dict
    _states: dict
    _own_menus: dict     # menu -> its projection onto ``addresses``
    _projections: dict   # projection's fields -> its one ``NetMenu``

    def rich_steps(self, state, menu: NetMenu = EMPTY_MENU) -> tuple:
        own = self._own_menus.get(menu)
        if own is None:
            own = self._project(menu)
        mkey = (state._n, own)
        hit = self._steps_memo.get(mkey)
        if hit is not None:
            return hit
        out = self._rich_steps(state, own)
        if len(self._steps_memo) < _MEMO_CAP:
            self._steps_memo[mkey] = out
        return out

    def _project(self, menu: NetMenu) -> NetMenu:
        """The one menu object of what ``menu`` offers this subtree.

        A subtree reads a menu's messages and links whole, and its
        new-packet budgets only for its own addresses, so the budgets of
        other nodes are dropped.  Equal projections are one object.
        """
        newpkts = FrozenMap({ip: pkts for ip, pkts in menu.newpkts.items()
                             if ip in self.addresses})
        fields = (menu.messages, newpkts, menu.links)
        own = self._projections.get(fields)
        if own is None:
            own = NetMenu(*fields)
            if len(self._projections) < _MEMO_CAP:
                self._projections[fields] = own
        if len(self._own_menus) < _MEMO_CAP:
            self._own_menus[menu] = own
        return own

    def _rich_steps(self, state, menu: NetMenu, build=RichStep,
                    make=None) -> tuple:
        raise NotImplementedError


class NodeAutomaton(MemoNetAutomaton):
    def __init__(self, ip: int, inner: Automaton, nbrs: frozenset):
        if ip in nbrs:
            raise ModelError(f"node {ip} lists itself as neighbour")
        self.ip = ip
        self.inner = inner
        self.addresses = frozenset([ip])
        self._steps_memo: dict = {}
        self._own_menus: dict = {}
        self._projections: dict = {}
        self._cast_memo: dict = {}
        self._states: dict = {}   # node state -> its canonical instance
        self.init = tuple(self._node(ip, i, frozenset(nbrs))
                          for i in inner.init)

    def _node(self, ip: int, inner, nbrs: frozenset) -> NodeS:
        """The canonical node state of this value, keyed by the value.

        A new one is numbered by its place in the table.  Node states
        are equal exactly when they digest equal (see ``ProcState``), so
        nothing here digests them.
        """
        s = NodeS(ip, inner, nbrs)
        got = self._states.get(s)
        if got is None:
            got = self._states[s] = s
            cache_attr(s, "_n", len(self._states) - 1)
        return got

    def _rich_steps(self, state: NodeS, menu: NetMenu,
                    build=RichStep, make=None) -> tuple:
        node = self._node if make is None else make
        ip = state.ip
        local_new = menu.newpkts.get(ip, ())
        inner_menu = (*menu.messages, *local_new)
        out: list = []

        def emit(origin, detail, action, target):
            out.append(build(origin, detail, action, target))

        for a, inner2 in self.inner.steps(state.inner, inner_menu):
            nxt = node(ip, inner2, state.nbrs)
            if isinstance(a, BroadcastA):
                act = CastA(state.nbrs, a.msg)
                emit(ip, act, act, nxt)
            elif isinstance(a, GroupcastA):
                act = CastA(state.nbrs & a.dests, a.msg)
                emit(ip, act, act, nxt)
            elif isinstance(a, UnicastA):
                if a.dest in state.nbrs:
                    act = CastA(frozenset([a.dest]), a.msg)
                    emit(ip, act, act, nxt)
            elif isinstance(a, UnicastFailA):
                if a.dest not in state.nbrs:
                    emit(ip, a, TAU, nxt)
            elif isinstance(a, ReceiveA):
                if _is_newpkt(a.msg):
                    if a.msg in local_new:
                        act = NewpktA(ip, a.msg.data, a.msg.dip)
                        emit(ip, act, act, nxt)
                elif a.msg in menu.messages:
                    act = ArriveA(frozenset([ip]), EMPTY, a.msg)
                    emit(ip, act, act, nxt)
            elif isinstance(a, DeliverA):
                act = DeliverAtA(ip, a.data)
                emit(ip, act, act, nxt)
            elif isinstance(a, TauA):
                emit(ip, a, TAU, nxt)
            # a bare Send has no node-level rule and is dropped

        for m in menu.messages:
            act = ArriveA(EMPTY, frozenset([ip]), m)
            emit(None, act, act, node(ip, state.inner, state.nbrs))

        for ev in menu.links:
            nbrs = state.nbrs
            if isinstance(ev, ConnectA):
                if ip == ev.a:
                    nbrs = nbrs | {ev.b}
                elif ip == ev.b:
                    nbrs = nbrs | {ev.a}
            elif isinstance(ev, DisconnectA):
                if ip == ev.a:
                    nbrs = nbrs - {ev.b}
                elif ip == ev.b:
                    nbrs = nbrs - {ev.a}
            else:
                raise ModelError(f"bad link event {ev!r}")
            emit(None, ev, ev, node(ip, state.inner, nbrs))

        return tuple(out)

    def cast_delivery(self, state: NodeS, msg, dests: frozenset) -> tuple:
        if state.ip not in dests:
            return (state,)
        mkey = (state._n, msg)
        hit = self._cast_memo.get(mkey)
        if hit is not None:
            return hit
        got: dict = {}
        for a, inner2 in self.inner.steps(state.inner, (msg,)):
            if isinstance(a, ReceiveA) and a.msg == msg:
                got[self._node(state.ip, inner2, state.nbrs)] = None
        out = tuple(got)
        if len(self._cast_memo) < _MEMO_CAP:
            self._cast_memo[mkey] = out
        return out


class SubnetAutomaton(MemoNetAutomaton):
    def __init__(self, left: NetAutomaton, right: NetAutomaton):
        if left.addresses & right.addresses:
            raise ModelError("subnets share addresses")
        self.left = left
        self.right = right
        self.addresses = left.addresses | right.addresses
        self._steps_memo: dict = {}
        self._own_menus: dict = {}
        self._projections: dict = {}
        self._cast_memo: dict = {}
        # (left._n, right._n) -> the canonical subnet state over children
        # with those numbers
        self._states: dict = {}
        self.init = tuple(
            self._pair(l, r) for l in left.init for r in right.init
        )

    def _pair(self, left, right) -> SubnetS:
        """The canonical subnet state over children numbered like these.

        Keyed by the children's numbers, so equal children give one
        state, whose own number is its place in the table.
        """
        key = (left._n, right._n)
        s = self._states.get(key)
        if s is None:
            s = self._states[key] = SubnetS(left, right)
            cache_attr(s, "_n", len(self._states) - 1)
        return s

    def _rich_steps(self, state: SubnetS, menu: NetMenu,
                    build=RichStep, make=None) -> tuple:
        pair = self._pair if make is None else make
        left, right = state.left, state.right
        lsteps = self.left.rich_steps(left, menu)
        rsteps = self.right.rich_steps(right, menu)
        out: list = []
        add = out.append

        # a local step of one side leaves the other as it is; a cast by
        # one side must be taken by every in-range node of the other
        for origin, detail, action, target in lsteps:
            if isinstance(action, _LOCAL):
                add(build(origin, detail, action, pair(target, right)))
            elif type(action) is CastA:
                for right2 in self.right.cast_delivery(
                        right, action.msg, action.dests):
                    add(build(origin, detail, action, pair(target, right2)))
        for origin, detail, action, target in rsteps:
            if isinstance(action, _LOCAL):
                add(build(origin, detail, action, pair(left, target)))
            elif type(action) is CastA:
                for left2 in self.left.cast_delivery(
                        left, action.msg, action.dests):
                    add(build(origin, detail, action, pair(left2, target)))

        # arrivals and topology changes are taken by both sides together
        for _, _, al, ltarget in lsteps:
            if type(al) is ArriveA:
                for _, _, ar, rtarget in rsteps:
                    if type(ar) is ArriveA and ar.msg == al.msg:
                        act = ArriveA(
                            al.heard | ar.heard, al.missed | ar.missed, al.msg
                        )
                        add(build(None, act, act, pair(ltarget, rtarget)))
            elif isinstance(al, (ConnectA, DisconnectA)):
                for _, _, ar, rtarget in rsteps:
                    # the type test spares a dataclass ``__eq__`` call
                    # per record of another class
                    if type(ar) is type(al) and ar == al:
                        add(build(None, al, al, pair(ltarget, rtarget)))
        return tuple(out)

    def cast_delivery(self, state: SubnetS, msg, dests: frozenset) -> tuple:
        mkey = (state._n, msg, dests)
        hit = self._cast_memo.get(mkey)
        if hit is not None:
            return hit
        lefts = self.left.cast_delivery(state.left, msg, dests)
        if lefts:
            rights = self.right.cast_delivery(state.right, msg, dests)
            # both sides are duplicate-free, so their product is too
            out = tuple(self._pair(l, r) for l in lefts for r in rights)
        else:
            out = ()
        if len(self._cast_memo) < _MEMO_CAP:
            self._cast_memo[mkey] = out
        return out


class ClosedAutomaton(NetAutomaton):
    """Top layer: casts become internal, arrivals are forbidden.

    The network below is the root of the tree, so its steps are taken
    from its unmemoized body (see ``_MEMO_CAP``), which builds each
    record with ``build`` after relabelling casts as Tau.  A caller that
    wraps the closed network passes its own ``build`` here instead of
    rebuilding the records it gets back, and may pass a ``make`` for the
    root targets, such as ``part_maker(closed)``.  By default a subnet
    root's targets are plain ``SubnetS`` states and a node root's are
    interned by its automaton, so that each root part carries a number.
    """

    def __init__(self, net: MemoNetAutomaton):
        self.net = net
        self.addresses = net.addresses
        self.init = net.init
        # None lets a node root intern its targets with its own ``_node``
        self._make = SubnetS if isinstance(net, SubnetAutomaton) else None

    def rich_steps(self, state, menu: NetMenu = EMPTY_MENU,
                   build=RichStep, make=None) -> tuple:
        # with no messages on offer no node can emit an arrival; a menu
        # that offers none is passed on as it is, and one that offers
        # some is replaced by one stripped copy, kept on it, so that each
        # automaton below projects one object per menu
        if menu.messages:
            stripped = getattr(menu, "_closed", None)
            if stripped is None:
                stripped = NetMenu((), menu.newpkts, menu.links)
                cache_attr(menu, "_closed", stripped)
            menu = stripped

        def close(origin, detail, action, target):
            if type(action) is CastA:
                action = TAU
            return build(origin, detail, action, target)

        return self.net._rich_steps(state, menu, close,
                                    self._make if make is None else make)


# A root state's parts.  A search keys a state by them and compares a
# step's source and target part by part: a step leaves every part it
# does not touch the same object, and the parts below the root are
# interned.  A subnet root's parts are its two children; a node root is
# one part, itself, which its automaton interns (see ``ClosedAutomaton``).


def root_parts(state) -> tuple:
    """The parts of root network state ``state``."""
    if type(state) is SubnetS:
        return state.left, state.right
    return (state,)


def _subnet_parts(left, right) -> tuple:
    return left, right


def part_maker(closed: ClosedAutomaton):
    """The ``make`` that gives the root successors of ``closed`` as parts."""
    if isinstance(closed.net, SubnetAutomaton):
        return _subnet_parts
    node = closed.net._node
    return lambda ip, inner, nbrs: (node(ip, inner, nbrs),)


def join_parts(parts):
    """The root network state made of ``parts`` (see ``root_parts``)."""
    if len(parts) == 2:
        return SubnetS(*parts)
    return parts[0]
