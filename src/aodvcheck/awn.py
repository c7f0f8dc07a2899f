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
  5. a closed network, which internalizes casts.

A node receives a message only as a cast of another node, delivered by
the subnet layer (``cast_delivery``); the environment offers nodes only
new packets and topology events.

States at every layer are immutable values.  The process layers' ``steps``
map a state (plus a finite environment menu) to a tuple of (action,
successor) pairs; the network layers' ``rich_steps`` map it to a tuple of
``RichStep`` records of the acting node, the action's informative shape
and the successor.  Either tuple lists steps in the order the rules build
them: choice branches left to right, the protocol before its queue, the
left subnet before the right, and menu entries in menu order.  A step the
process rules build twice is kept once, at its first position.  The tuple
is thus the semantics' step set in an order that depends on no hash seed
and no object identity.

Every layer below the root is hash-consed.  Each node and subnet
automaton keeps a table, ``_states``, of the states it has built (its
initial states, step targets and cast deliveries), and hands out the
one built first whenever a new state equals it, before anything digests
it or caches on it.  Process states are interned the same way, but by
their ``ProcessTable``, which every automaton, run and seed of one
configuration shares (see ``ProcessTable``).  A subtree value is then
one object, digested at most once and carrying one set of the monitors'
caches, however many global states share it.  Each new state is
numbered by its place as it enters its table, as its ``_n``.  A process
table interns by value, and interns a copy of each initial state it is
given, so a caller's object is never numbered.  Two reached process
states are equal exactly when they digest equal (see ``ProcState``), so
a number stands for a value among its table's states, and for its
``bdigest`` value.  A node's table is keyed by its process states'
numbers and its neighbours, and a subnet's by its children's numbers,
which are set already; so a process state is hashed by value only as it
is built and interned, and a node or subnet state never.  Every memo and
duplicate check above keys on numbers, and the network layers' memos
also on the identity of the menu's projection onto the subtree's
addresses (see ``NetMenu``), so a lookup hashes small values in C.  The
tables have no cap, since the numbers must be exact.  Subnet root
targets are built plain: a table at the root would keep every explored
state alive, so that table holds only its initial states.  A node root
interns its targets, so that they carry numbers too; a one-node network
has few states.  Interning changes no step, order or digest, only which
object stands for a value.

The composition rules of the network layers are written once, in the
node's and the subnet's ``_rich_steps``.  These take a record builder,
called as ``build(origin, detail, target)`` for each step they compose,
and a target maker, called as ``make(left, right)`` by a subnet and
``make(ip, inner, nbrs)`` by a node.  Below the root the builder is
``RichStep`` itself and the maker the automaton's interning one.  The
closed network hands its caller's builder straight down to the root: by
default ``RichStep``, or an explorer's environment wrapper's, which
pairs each target with its environment successor.  So each step of the
closed system is built exactly once, and no layer relabels a record.  A
record's detail is what the acting node did; which details a layer
shows as Tau is written once, in ``NetAutomaton.hidden``, and read only
by the ``steps`` view.

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

from .canon import EMPTY_MAP, FrozenMap, interned, struct_digest, value_key
from .canon import bdigest  # noqa: F401  (bench/spans.py patches this name)

EMPTY = frozenset()


class ModelError(Exception):
    """Raised for ill-formed process tables, terms or networks."""


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
    """Named process bodies; the recursion environment for Call.

    A term's control locations never change, so ``labels`` and ``locs``
    cache them per term, keyed by the term's identity; each entry keeps
    its term alive, so that no other term can take over its ``id``.

    The table also owns its process states and their steps, for every
    ``SeqAutomaton`` of it.  ``intern`` keeps one object per state value
    and numbers it densely, as its ``_n``; ``steps`` memoizes
    ``seq_steps`` on ``(state number, menu)``.  A process's steps depend
    only on its own state and what it is offered, never on the network
    around it, so every node, run and seed over one table can share
    them; numbers only name values.  The memo stops growing at
    ``_MEMO_CAP`` entries; the intern table has no cap, since the
    numbers must be exact.
    """

    def __init__(self, bodies: dict[str, ProcessTerm]):
        self._bodies = dict(bodies)
        self._label_cache: dict[int, tuple] = {}
        self._loc_cache: dict[int, tuple] = {}
        self._states: dict = {}       # process state -> its canonical instance
        self._steps_memo: dict = {}   # (number, menu) -> steps
        for name, body in self._bodies.items():
            _check_complete(name, body)
            for t in subterms(body):
                if isinstance(t, Call) and t.name not in self._bodies:
                    raise ModelError(
                        f"process {name!r} calls undeclared process {t.name!r}"
                    )

    def intern(self, state: ProcState) -> ProcState:
        """The one numbered object of ``state``'s value in this table."""
        return interned(self._states, state)

    def steps(self, state: ProcState, menu=()) -> tuple:
        """``seq_steps`` of interned ``state``, with interned targets.

        A memo hit returns the steps a fresh call would build, in their
        order.
        """
        key = (state._n, menu)
        out = self._steps_memo.get(key)
        if out is None:
            states = self._states
            out = tuple((a, interned(states, s))
                        for a, s in seq_steps(self, state, menu))
            if len(self._steps_memo) < _MEMO_CAP:
                self._steps_memo[key] = out
        return out

    def __getitem__(self, name: str) -> ProcessTerm:
        try:
            return self._bodies[name]
        except KeyError:
            raise ModelError(f"undeclared process {name!r}") from None

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

    def locs(self, term: ProcessTerm) -> tuple:
        """``labels(term)`` as sorted ``(process name, offset)`` pairs."""
        got = self._loc_cache.get(id(term))
        if got is None:
            locs = tuple(sorted((l.pname, l.offset) for l in self.labels(term)))
            got = self._loc_cache[id(term)] = (term, locs)
        return got[1]

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
    | DeliverA | CastA | ConnectA | DisconnectA | NewpktA | DeliverAtA
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
    # which the table caches per term (``ProcessTable.locs``), and cache
    # the results on the instance; ``value_key`` and ``bdigest`` cannot
    # read a term, which holds functions.  Two states of one table
    # compare equal exactly when they encode equal: a call compares by
    # name, ``label_process`` gives every other prefix but a choice's
    # branch heads a location of its own, and a process is never at a
    # branch head, only at the choice.  A process automaton interns and
    # numbers its states by value on the strength of this, so its
    # numbers tell states apart as their digests do, and so do the node
    # numbers built on them.
    def _locs(self) -> tuple:
        return self.table.locs(self.term)

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
    """A sequential process of one table; ``steps`` are the table's.

    The automaton holds only its table and its initial states, which
    the table interns as copies of the states it is given.  Every
    automaton of one table shares the table's states, numbers and step
    memo (see ``ProcessTable``).
    """

    def __init__(self, table: ProcessTable, init: Iterable):
        self.table = table
        self.init = tuple(table.intern(ProcState(s.data, s.term, table))
                          for s in init)

    def steps(self, state, menu=()) -> tuple:
        return self.table.steps(state, menu)


# ---------------------------------------------------------------------------
# layer 2: protocol process beside its message queue


class ParAutomaton(Automaton):
    """Left component's receives feed on right component's sends.

    A Receive(m) of the left and a Send(m) of the right synchronize to
    an internal step.  Every other action of the left except Receive,
    and of the right except Send, interleaves.  Both components number
    their states, so a step built twice is told by its action and its
    target's two numbers.
    """

    def __init__(self, left: SeqAutomaton, right: SeqAutomaton):
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
        # (action, left number, right number) -> the first such step
        out: dict = {}
        add = out.setdefault
        for a, l2 in left_steps:
            if isinstance(a, ReceiveA):
                for b, r2 in right_steps:
                    if isinstance(b, SendA) and b.msg == a.msg:
                        add((TAU, l2._n, r2._n), (TAU, (l2, r2)))
            else:
                add((a, l2._n, r._n), (a, (l2, r)))
        for b, r2 in right_steps:
            if not isinstance(b, SendA):
                add((b, l._n, r2._n), (b, (l, r2)))
        return tuple(out.values())


# ---------------------------------------------------------------------------
# network layers
#
# The environment menu for the network layers bundles two finite
# supplies: new-packet injections allowed per node, and topology events
# under consideration.


@dataclass(frozen=True, eq=False)
class NetMenu:
    """What a layer's context offers it: see the comment above.

    Menus compare and hash by identity.  Each node and subnet below the
    root maps a menu it is given, by identity, to one object per value
    of its projection: the links, and the new-packet budgets of the
    subtree's own addresses only, which is all that a subtree reads.
    The step memos key on ``(state number, projection)``, and an
    identity key hashes in C, with no call into the menu or its link
    events.  A menu equal in value to one seen before, or differing only
    in another node's budget, meets the same memo entries; a new menu
    object costs one projection per automaton.  A run's environment
    keeps one menu object per environment state (``EnvNet.menu_for``).
    """

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

    ``detail`` is what the acting node did, in its informative shape,
    and ``origin`` the address of that node, when there is one.  Every
    layer keeps the node's detail as it is: a layer that shows a step as
    Tau (a unicast failure at every layer, a cast at the closed one)
    says so only in its ``steps`` view (see ``NetAutomaton.shown``).  A
    record is a tuple, so it is never changed once built, and the
    composition rules unpack it as one.
    """

    origin: Optional[int]
    detail: Action
    target: Any

    # The simulator orders sibling steps by this key, with steps that no
    # node takes (origin None) first, as origin -1.  The target is left
    # out: ``simulate.sibling_order`` keys a target only where two
    # siblings tie here.
    def canon_key(self) -> tuple:
        return ("step", -1 if self.origin is None else self.origin,
                value_key(self.detail))


class NetAutomaton(Automaton):
    """Shared shape of node, subnet and closed automata."""

    addresses: frozenset
    # the details of the steps this layer shows as Tau: a unicast
    # failure here, and a cast as well at the closed layer
    hidden: tuple = (UnicastFailA,)

    def rich_steps(self, state, menu: NetMenu = EMPTY_MENU) -> tuple:
        raise NotImplementedError

    def shown(self, detail) -> Action:
        """The action this layer shows for a step of ``detail``."""
        return TAU if isinstance(detail, self.hidden) else detail

    def steps(self, state, menu: NetMenu = EMPTY_MENU) -> tuple:
        """The transition-system view: (action, target) pairs, each once.

        A step's action is what this layer shows for its record's detail
        (``shown``): Tau for a unicast failure below the root, and for a
        cast or a unicast failure at the closed layer; the detail itself
        for any other step.
        """
        shown = self.shown
        return tuple(dict.fromkeys(
            (shown(r.detail), r.target) for r in self.rich_steps(state, menu)))

    def cast_delivery(self, state, msg, dests: frozenset) -> tuple:
        """States after ``msg`` is cast with range ``dests``.

        Every in-range node must take the message (empty result means
        the cast is blocked); out-of-range nodes are untouched.
        """
        raise NotImplementedError


# Step sets are memoized below the root.  A node's local state repeats
# across a huge number of global states, and so does an inner subnet's:
# its steps depend only on its own state and the part of the menu its
# context offers it (``MemoNetAutomaton._project``), which is the
# compositionality the paper's invariants are lifted by.  Exploration of
# a small network touches far fewer distinct (subtree state, projected
# menu) pairs than global states, so a per-automaton cache pays for
# itself immediately.  Each process table memoizes its processes' steps
# by (process state, menu) too: a node steps its protocol and queue again
# whenever it meets a new menu or cast, and most of those process steps
# were built before, by this node, another node, or an earlier run over
# the table (``ProcessTable``).  The root (the network a
# ``ClosedAutomaton`` closes) is expanded through the unmemoized body:
# a search expands each root state exactly once, so a root memo would
# only keep every expanded state's successors alive.  The memos key on
# the numbers of interned states (see the module docstring).  Each
# memo, and each map of menus to their projections, stops growing at
# this many entries, which only memory and time depend on; so do the
# monitors' caches.
_MEMO_CAP = 1 << 20

# details of one side's steps that the other side takes no part in
_LOCAL = (TauA, UnicastFailA, DeliverAtA, NewpktA)


class MemoNetAutomaton(NetAutomaton):
    """A node or subnet layer, which memoizes its steps and interns its states.

    ``rich_steps`` memoizes ``_rich_steps`` and ``cast_delivery``
    memoizes ``_cast_delivery``, each keyed by the state's number (see
    the module docstring).  ``rich_steps`` first projects the menu onto
    the layer's addresses (see ``NetMenu``), and keys its memo and steps
    its body, and so a subnet's children, on that projection.
    ``_rich_steps`` interns the targets it builds unless it is given
    another ``make``, as the closed layer does for a subnet root.  A
    subclass writes only its composition rules and its intern key.
    """

    def __init__(self, addresses: frozenset):
        self.addresses = addresses
        self._steps_memo: dict = {}   # (number, projected menu) -> steps
        self._cast_memo: dict = {}    # (number, msg, own range) -> deliveries
        self._own_menus: dict = {}    # menu -> its projection onto addresses
        self._projections: dict = {}  # projection's fields -> its NetMenu
        self._states: dict = {}       # intern key -> the canonical state

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

        A subtree reads a menu's links whole, and its new-packet budgets
        only for its own addresses, so the budgets of other nodes are
        dropped.  Equal projections are one object.
        """
        newpkts = FrozenMap({ip: pkts for ip, pkts in menu.newpkts.items()
                             if ip in self.addresses})
        fields = (newpkts, menu.links)
        own = self._projections.get(fields)
        if own is None:
            own = NetMenu(*fields)
            if len(self._projections) < _MEMO_CAP:
                self._projections[fields] = own
        if len(self._own_menus) < _MEMO_CAP:
            self._own_menus[menu] = own
        return own

    def cast_delivery(self, state, msg, dests: frozenset) -> tuple:
        # keyed by the part of the range this subtree sees; a subtree
        # with no node in range is left as it is
        own = dests & self.addresses
        if not own:
            return (state,)
        mkey = (state._n, msg, own)
        hit = self._cast_memo.get(mkey)
        if hit is not None:
            return hit
        out = self._cast_delivery(state, msg, own)
        if len(self._cast_memo) < _MEMO_CAP:
            self._cast_memo[mkey] = out
        return out

    def _rich_steps(self, state, menu: NetMenu, build=RichStep,
                    make=None) -> tuple:
        raise NotImplementedError


class NodeAutomaton(MemoNetAutomaton):
    def __init__(self, ip: int, inner: Automaton, nbrs: frozenset):
        if ip in nbrs:
            raise ModelError(f"node {ip} lists itself as neighbour")
        super().__init__(frozenset([ip]))
        self.ip = ip
        self.inner = inner
        self.init = tuple(self._node(ip, i, frozenset(nbrs))
                          for i in inner.init)

    def _node(self, ip: int, inner, nbrs: frozenset) -> NodeS:
        """The canonical node state over ``inner`` and ``nbrs``.

        ``inner`` is a protocol and queue pair, or a bare process state,
        interned by this node's process automata; the table is keyed by
        its numbers and the neighbours (see the module docstring).
        """
        key = ((inner[0]._n, inner[1]._n, nbrs) if type(inner) is tuple
               else (inner._n, nbrs))
        return interned(self._states, key, NodeS, ip, inner, nbrs)

    def _rich_steps(self, state: NodeS, menu: NetMenu,
                    build=RichStep, make=None) -> tuple:
        node = self._node if make is None else make
        ip, nbrs = state.ip, state.nbrs
        out: list = []

        # the inner automaton is offered only this node's new packets, so
        # each of its receives takes one of them
        for a, inner2 in self.inner.steps(state.inner,
                                          menu.newpkts.get(ip, ())):
            if isinstance(a, BroadcastA):
                detail = CastA(nbrs, a.msg)
            elif isinstance(a, GroupcastA):
                detail = CastA(nbrs & a.dests, a.msg)
            elif isinstance(a, UnicastA) and a.dest in nbrs:
                detail = CastA(frozenset([a.dest]), a.msg)
            elif isinstance(a, UnicastFailA) and a.dest not in nbrs:
                detail = a
            elif isinstance(a, ReceiveA):
                detail = NewpktA(ip, a.msg.data, a.msg.dip)
            elif isinstance(a, DeliverA):
                detail = DeliverAtA(ip, a.data)
            elif isinstance(a, TauA):
                detail = a
            else:
                # an out-of-range unicast, an in-range unicast failure
                # and a bare send have no node-level rule
                continue
            out.append(build(ip, detail, node(ip, inner2, nbrs)))

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
            out.append(build(None, ev, node(ip, state.inner, nbrs)))

        return tuple(out)

    def _cast_delivery(self, state: NodeS, msg, dests: frozenset) -> tuple:
        # the inner automaton keeps one step per action and target, and
        # the steps kept here share one action, so their targets differ
        return tuple(self._node(state.ip, inner2, state.nbrs)
                     for a, inner2 in self.inner.steps(state.inner, (msg,))
                     if isinstance(a, ReceiveA) and a.msg == msg)


class SubnetAutomaton(MemoNetAutomaton):
    def __init__(self, left: NetAutomaton, right: NetAutomaton):
        if left.addresses & right.addresses:
            raise ModelError("subnets share addresses")
        super().__init__(left.addresses | right.addresses)
        self.left = left
        self.right = right
        self.init = tuple(
            self._pair(l, r) for l in left.init for r in right.init
        )

    def _pair(self, left, right) -> SubnetS:
        """The canonical subnet state over children numbered like these.

        Keyed by the children's numbers, so equal children give one
        state, whose own number is its place in the table.
        """
        return interned(self._states, (left._n, right._n),
                        SubnetS, left, right)

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
        for origin, detail, target in lsteps:
            if isinstance(detail, _LOCAL):
                add(build(origin, detail, pair(target, right)))
            elif type(detail) is CastA:
                for right2 in self.right.cast_delivery(
                        right, detail.msg, detail.dests):
                    add(build(origin, detail, pair(target, right2)))
        for origin, detail, target in rsteps:
            if isinstance(detail, _LOCAL):
                add(build(origin, detail, pair(left, target)))
            elif type(detail) is CastA:
                for left2 in self.left.cast_delivery(
                        left, detail.msg, detail.dests):
                    add(build(origin, detail, pair(left2, target)))

        # topology changes are taken by both sides together
        for _, dl, ltarget in lsteps:
            if isinstance(dl, (ConnectA, DisconnectA)):
                for _, dr, rtarget in rsteps:
                    # the type test spares a dataclass ``__eq__`` call
                    # per record of another class
                    if type(dr) is type(dl) and dr == dl:
                        add(build(None, dl, pair(ltarget, rtarget)))
        return tuple(out)

    def _cast_delivery(self, state: SubnetS, msg, dests: frozenset) -> tuple:
        lefts = self.left.cast_delivery(state.left, msg, dests)
        if not lefts:
            return ()
        rights = self.right.cast_delivery(state.right, msg, dests)
        # both sides are duplicate-free, so their product is too
        return tuple(self._pair(l, r) for l in lefts for r in rights)


class ClosedAutomaton(NetAutomaton):
    """Top layer: casts become internal.

    Its ``steps`` view shows a cast as Tau, as well as a unicast failure
    (see ``hidden``); its records keep the cast as their detail, like
    every layer's.  The network below is the root of the tree, so its
    steps are taken from its unmemoized body (see ``_MEMO_CAP``), which
    builds each record with ``build``.  A caller that wraps the closed
    network passes its own ``build`` here instead of rebuilding the
    records it gets back, and may pass a ``make`` for the root targets,
    such as ``part_maker(closed)``.  By default a subnet root's targets
    are plain ``SubnetS`` states and a node root's are interned by its
    automaton, so that each root part carries a number.
    """

    hidden = NetAutomaton.hidden + (CastA,)

    def __init__(self, net: MemoNetAutomaton):
        self.net = net
        self.addresses = net.addresses
        self.init = net.init
        # None lets a node root intern its targets with its own ``_node``
        self._make = SubnetS if isinstance(net, SubnetAutomaton) else None

    def rich_steps(self, state, menu: NetMenu = EMPTY_MENU,
                   build=RichStep, make=None) -> tuple:
        return self.net._rich_steps(state, menu, build,
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
