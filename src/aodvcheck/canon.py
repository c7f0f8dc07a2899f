"""Canonical encodings of model values.

Every state, message and action in the model can be turned into a nested
tuple of plain ints/strings (``value_key``) and into a 16-byte structural
digest (``bdigest``).  Keys have two jobs: they order the simulator's
sibling steps (``simulate.sibling_order``), and they give the digests
of the states a counterexample file lists (``digest``).  Nothing else
is sorted by key: a ``FrozenMap`` iterates in the order of its keys
themselves, and the explorer takes initial states in the order the
automata build them.  Structural digests identify values everywhere
else: the states in simulation traces, a counterexample's initial state
and the monitors' caches.  The automata below the root number the
states they intern, which tells reached states apart as digests do
(see ``bdigest`` and :mod:`aodvcheck.awn`), so the memos and the
explorer's visited set, keyed by those numbers, digest nothing.
Nothing here may depend on object identity or on Python's randomized
string hashing.

A model value's encoding is defined once, by its fields: a frozen
dataclass is encoded as its class name followed by the encodings of its
compared fields, in declaration order, for the key and the digest
alike.  Only values whose identity is not their fields supply
``canon_key``/``canon_digest`` hooks: a process state (its control term
counts by location), a network step (the simulator's sort key, which
leaves out the target) and ``FrozenMap``, which is not a dataclass.

Both encodings dispatch on the exact type of their argument, each
through a table of its own, so that a value already seen costs one dict
lookup and no ``isinstance`` test (``FrozenMap``'s, through ``ABCMeta``,
is a Python call).  One ladder, ``_learn``, fills both tables the first
time either encoding meets a class, trying the classes in one order:
primitives and ``None`` (a bool encodes apart from the int of the same
value: by ``("bool", n)`` in the key and by ``repr`` in the digest),
tuples (a named tuple encodes as one), sets, then per dataclass an
encoder of its hook or of its compared fields, and ``FrozenMap``'s
hooks.  A dataclass caches its key on the instance as its ``_ckey``
attribute and its digest as ``_bdg``, both read with ``getattr`` and set
with ``object.__setattr__`` so that no instance is given a ``__dict__``
of its own; a ``FrozenMap`` caches its hash, its digest and its key in
slots of its own.  A class with no encoding raises ``TypeError`` when
first met.

Error messages quote an offending value through ``quote``, a ``repr``
cut short, so that a huge or deeply nested value still gives a short
one-line error.
"""
from __future__ import annotations

import dataclasses
import hashlib
import reprlib
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Iterator


class FrozenMap(Mapping):
    """Immutable mapping with order-insensitive equality and hashing.

    Iteration is sorted by key so consumers never observe insertion
    order.  Keys must be canonically encodable and ordered among
    themselves: the model's maps have int keys or ``(ip, data, dip)``
    keys, which sort by themselves exactly as by ``value_key``.
    ``get``, ``items`` and ``values`` read the dict directly, where the
    ``Mapping`` mixins would go through ``__getitem__`` key by key;
    ``items`` and ``values`` are lists, in the same sorted order.
    """

    __slots__ = ("_d", "_hash", "_dg", "_key")

    def __init__(self, items: Any = ()):
        self._d = dict(items)
        self._hash: int | None = None
        self._dg: bytes | None = None
        self._key: tuple | None = None

    def __getitem__(self, key: Any) -> Any:
        return self._d[key]

    def __iter__(self) -> Iterator:
        return iter(sorted(self._d))

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: Any) -> bool:
        return key in self._d

    def get(self, key: Any, default: Any = None) -> Any:
        return self._d.get(key, default)

    def items(self) -> list:
        d = self._d
        return [(k, d[k]) for k in sorted(d)]

    def values(self) -> list:
        d = self._d
        return [d[k] for k in sorted(d)]

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash  # type: ignore[return-value]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FrozenMap):
            return self._d == other._d
        if isinstance(other, dict):
            return self._d == other
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return "FrozenMap({%s})" % inner

    def set(self, key: Any, value: Any) -> "FrozenMap":
        d = dict(self._d)
        d[key] = value
        return FrozenMap(d)

    def remove(self, key: Any) -> "FrozenMap":
        d = dict(self._d)
        del d[key]
        return FrozenMap(d)

    def canon_key(self) -> tuple:
        if self._key is None:
            self._key = ("map",) + tuple(
                (value_key(k), value_key(v)) for k, v in self.items())
        return self._key

    def canon_digest(self) -> bytes:
        if self._dg is None:
            pairs = sorted(bdigest(k) + bdigest(v)
                           for k, v in self._d.items())
            self._dg = _hd(b"m" + b"".join(pairs))
        return self._dg


EMPTY_MAP = FrozenMap()


# type -> (key tag, digest tag, getter of the compared fields as a tuple)
_shapes: dict = {}


def _shape(cls: type) -> tuple:
    shape = _shapes.get(cls)
    if shape is None:
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"no canonical encoding for {cls.__name__}")
        names = [f.name for f in dataclasses.fields(cls) if f.compare]
        if len(names) > 1:
            get = attrgetter(*names)
        elif names:
            one = attrgetter(names[0])
            get = lambda x: (one(x),)
        else:
            get = lambda x: ()
        name = cls.__name__
        shape = _shapes[cls] = (name, name.encode("utf-8") + b"\0", get)
    return shape


def _none_key(x) -> tuple:
    return ("none",)


def _bool_key(x) -> tuple:
    return ("bool", int(x))


# the keys of small non-negative ints, built once, so that the keys
# cached on model values share them
_SMALL_INT_KEYS = tuple(("int", i) for i in range(256))


def _int_key(x) -> tuple:
    return _SMALL_INT_KEYS[x] if 0 <= x < 256 else ("int", x)


def _str_key(x) -> tuple:
    return ("str", x)


def _tuple_key(x: tuple) -> tuple:
    return ("tup",) + tuple(map(value_key, x))


def _set_key(x) -> tuple:
    return ("set",) + tuple(sorted(map(value_key, x)))


def _cached(hook, attr: str):
    """Encoder that caches ``hook(x)`` on ``x`` as its attribute ``attr``."""
    def encode(x):
        v = getattr(x, attr, None)
        if v is None:
            v = hook(x)
            cache_attr(x, attr, v)
        return v
    return encode


def _dataclass_key(cls: type):
    """Encoder of a dataclass: its hook or its fields, cached in ``_ckey``."""
    hook = getattr(cls, "canon_key", None)
    if hook is None:
        name, _, get = _shape(cls)
        hook = lambda x: (name, *map(value_key, get(x)))
    return _cached(hook, "_ckey")


def value_key(x: Any) -> tuple:
    """Nested-tuple encoding of a model value, total over the model's types.

    Dispatches on the exact type of ``x``, as ``bdigest`` does (see the
    module docstring), so a named tuple such as ``RichStep`` encodes as
    a tuple.  A dataclass encodes as its ``canon_key`` hook or as
    ``(class name, *keys of its compared fields)``, cached on the
    instance as its ``_ckey`` attribute; ``FrozenMap``'s hook caches
    its key in a slot.
    """
    enc = _key_encoders.get(type(x))
    if enc is None:
        enc = _learn(type(x))[0]
    return enc(x)


# the types of a key's items: tags, primitives and nested keys
_KEY_ITEMS = frozenset([str, int, type(None), tuple])


def digest(x: Any) -> str:
    """Stable hex digest of a value's canonical key (32 hex chars).

    ``x`` may be a key already: a tuple of a ``str`` tag and items of
    the types a key holds, as ``value_key`` builds it.  Any other value,
    a tuple of model values such as an explorer's root state among them,
    is encoded first, so that no ``repr`` of a model object is hashed.
    Only the top level of a tuple is tested, so the test costs little
    beside the hash.
    """
    if not (type(x) is tuple and x and type(x[0]) is str
            and all(type(v) in _KEY_ITEMS for v in x)):
        x = value_key(x)
    return hashlib.sha256(repr(x).encode("utf-8")).hexdigest()[:32]


# ``quote`` elides what lies deep or far into a value, then cuts the text.
_REPR = reprlib.Repr()
_REPR.maxlevel = 2
_REPR.maxlist = _REPR.maxtuple = _REPR.maxdict = _REPR.maxset = 4
_REPR.maxstring = _REPR.maxother = 24
_QUOTE_MAX = 60


def quote(x) -> str:
    """``repr(x)``, cut to at most ``_QUOTE_MAX`` characters."""
    text = _REPR.repr(x)
    if len(text) > _QUOTE_MAX:
        text = text[:_QUOTE_MAX - 3] + "..."
    return text


# Values cached on frozen instances are set past their ``__setattr__``
# with this, and read back with ``getattr``.  Touching ``x.__dict__``
# instead would give every such instance a dict of its own, where
# CPython otherwise keeps its attributes in the object itself.
cache_attr = object.__setattr__


def interned(table: dict, key, make=None, *args):
    """The object ``table`` holds under ``key``, added if there is none.

    A new object is ``make(*args)``, or ``key`` itself when no ``make``
    is given, and is numbered by its place in the table, cached as its
    ``_n``.  Such a table has no cap, since the numbers must be exact.
    """
    got = table.get(key)
    if got is None:
        got = table[key] = key if make is None else make(*args)
        cache_attr(got, "_n", len(table) - 1)
    return got


def _hd(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:16]


def _flat(x: tuple) -> bool:
    """True when ``x`` nests nothing but primitives (repr is injective)."""
    for v in x:
        if v is None or isinstance(v, (int, str)):
            continue
        if isinstance(v, tuple) and _flat(v):
            continue
        return False
    return True


def _prim_digest(x) -> bytes:
    # bool encodes by repr too, so True and 1 digest apart
    return _hd(b"p" + repr(x).encode("utf-8"))


def _tuple_digest(x: tuple) -> bytes:
    if _flat(x):
        return _hd(b"q" + repr(x).encode("utf-8"))
    return _hd(b"t" + b"".join(map(bdigest, x)))


def _set_digest(x) -> bytes:
    return _hd(b"s" + b"".join(sorted(map(bdigest, x))))


def _dataclass_digest(cls: type):
    """Encoder of a dataclass: its hook or its fields, cached in ``_bdg``."""
    hook = getattr(cls, "canon_digest", None)
    if hook is None:
        _, tag, get = _shape(cls)
        hook = lambda x: struct_digest(tag, get(x))
    return _cached(hook, "_bdg")


# exact type -> its key encoder, and -> its digest encoder; both filled
# by ``_learn`` the first time the type is seen
_key_encoders: dict = {}
_encoders: dict = {}


def _learn(cls: type) -> tuple:
    """The key and digest encoders of ``cls``, entered in both tables."""
    if cls is type(None):
        encs = _none_key, _prim_digest
    elif issubclass(cls, bool):
        encs = _bool_key, _prim_digest
    elif issubclass(cls, int):
        encs = _int_key, _prim_digest
    elif issubclass(cls, str):
        encs = _str_key, _prim_digest
    elif issubclass(cls, tuple):
        encs = _tuple_key, _tuple_digest
    elif issubclass(cls, (set, frozenset)):
        encs = _set_key, _set_digest
    elif dataclasses.is_dataclass(cls):
        encs = _dataclass_key(cls), _dataclass_digest(cls)
    elif hasattr(cls, "canon_key") and hasattr(cls, "canon_digest"):
        encs = cls.canon_key, cls.canon_digest
    else:
        raise TypeError(f"no canonical encoding for {cls.__name__}")
    _key_encoders[cls], _encoders[cls] = encs
    return encs


def bdigest(x: Any) -> bytes:
    """Compact structural digest (16 bytes) of a model value.

    Composite values hash over their parts' digests, so after a small
    change to a large state only the spine that changed is re-hashed.
    A dataclass digests as ``struct_digest`` of its compared fields,
    tagged with its class name, and caches the result on the instance.
    Like the keys, digests are derived from the fields alone, so two
    values digest equal exactly when their canonical keys are equal
    (modulo hash collisions).

    Equality is another relation.  Equal values digest equal as long as
    no field holds a bool where the other value holds the int of the
    same value: ``True == 1``, but the two digest apart.  The model's
    states do not mix the two, and the interning of process, node and
    subnet states in :mod:`aodvcheck.awn` relies on this direction: it
    replaces a built state by an equal one built before, whose digest
    must be the same.
    The converse holds on the model's reached states too, and the
    process automata rely on it when they number their states by value: a
    ``ProcState`` digests the locations its control term stands for, and
    two terms of one table that a process can be at stand for the same
    locations only when they compare equal, a call comparing by the name
    it calls (see ``ProcState`` in :mod:`aodvcheck.awn`).  Values outside
    the model, such as two process terms built apart, can still digest
    equal and compare unequal.
    """
    enc = _encoders.get(type(x))
    if enc is None:
        enc = _learn(type(x))[1]
    return enc(x)


def struct_digest(tag: bytes, parts: tuple) -> bytes:
    """Digest of a tagged product of parts, each digested structurally."""
    return _hd(tag + b"".join(map(bdigest, parts)))
