"""Canonical encodings of model values.

Every state, message and action in the model can be turned into a nested
tuple of plain ints/strings (``value_key``) and into a 16-byte structural
digest (``bdigest``).  Keys make sets and maps of model values sortable
in a reproducible order: they order the simulator's sibling steps and
the explorer's initial states, and give the digests of the states a
counterexample file lists (``digest``).  Structural digests identify
values everywhere else: the states in simulation traces, a
counterexample's initial state and the monitors' caches.  The node
automata number the node states they intern by value, which tells
reached states apart as digests do (see ``bdigest``), so the memos and
the explorer's visited set, keyed by those numbers, digest nothing.
Nothing here may depend on object identity or on Python's randomized
string hashing.

A model value's encoding is defined once, by its fields: a frozen
dataclass is encoded as its class name followed by the encodings of its
compared fields, in declaration order, for the key and the digest
alike.  Only values whose identity is not their fields supply
``canon_key``/``canon_digest`` hooks: a process state (its control term
counts by location), a network step (the simulator's sort key, which
leaves out the target) and ``FrozenMap``, which is not a dataclass.

``bdigest`` dispatches on the exact type of its argument through one
table of encoders, filled the first time each class is seen: one for
primitives and ``None`` (a bool encodes by ``repr``, apart from the int
of the same value), one each for tuples and sets, the ``FrozenMap`` hook,
and per dataclass an encoder of its hook or of its compared fields that
caches the digest on the instance as its ``_bdg`` attribute, read with
``getattr`` and set with ``object.__setattr__`` so that no instance is
given a ``__dict__`` of its own.  A class with no encoding raises
``TypeError`` when first met.
"""
from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Iterator


class FrozenMap(Mapping):
    """Immutable mapping with order-insensitive equality and hashing.

    Iteration is sorted by key so consumers never observe insertion
    order.  Keys must be canonically encodable (ints, strings, tuples).
    """

    __slots__ = ("_d", "_hash", "_dg")

    def __init__(self, items: Any = ()):
        self._d = dict(items)
        self._hash: int | None = None
        self._dg: bytes | None = None

    def __getitem__(self, key: Any) -> Any:
        return self._d[key]

    def __iter__(self) -> Iterator:
        return iter(sorted(self._d, key=value_key))

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: Any) -> bool:
        return key in self._d

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
        return ("map",) + tuple(
            (value_key(k), value_key(v)) for k, v in self.items()
        )

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


def value_key(x: Any) -> tuple:
    """Nested-tuple encoding of a model value, total over the model's types.

    A dataclass encodes as ``(class name, *keys of its compared
    fields)``, cached on the instance.
    """
    if x is None:
        return ("none",)
    if isinstance(x, bool):
        return ("bool", int(x))
    if isinstance(x, int):
        return ("int", x)
    if isinstance(x, str):
        return ("str", x)
    if isinstance(x, tuple):
        return ("tup",) + tuple(value_key(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return ("set",) + tuple(sorted(value_key(v) for v in x))
    d = getattr(x, "__dict__", None)
    if d is not None:
        k = d.get("_ckey")
        if k is not None:
            return k
    ck = getattr(x, "canon_key", None)
    if ck is not None:
        k = ck()
    else:
        name, _, get = _shape(type(x))
        k = (name, *map(value_key, get(x)))
    if d is not None:
        d["_ckey"] = k
    return k


def digest(x: Any) -> str:
    """Stable hex digest of a value's canonical key (32 hex chars)."""
    key = x if isinstance(x, tuple) else value_key(x)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]


# Values cached on frozen instances are set past their ``__setattr__``
# with this, and read back with ``getattr``.  Touching ``x.__dict__``
# instead would give every such instance a dict of its own, where
# CPython otherwise keeps its attributes in the object itself.
cache_attr = object.__setattr__


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

    def encode(x) -> bytes:
        b = getattr(x, "_bdg", None)
        if b is None:
            b = hook(x)
            cache_attr(x, "_bdg", b)
        return b
    return encode


# exact type -> digest encoder, filled by ``_encoder`` on first sight
_encoders: dict = {}


def _encoder(cls: type):
    if issubclass(cls, (int, str)) or cls is type(None):
        enc = _prim_digest
    elif issubclass(cls, tuple):
        enc = _tuple_digest
    elif issubclass(cls, (set, frozenset)):
        enc = _set_digest
    elif dataclasses.is_dataclass(cls):
        enc = _dataclass_digest(cls)
    elif hasattr(cls, "canon_digest"):
        enc = cls.canon_digest
    else:
        raise TypeError(f"no canonical encoding for {cls.__name__}")
    _encoders[cls] = enc
    return enc


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
    states do not mix the two, and the interning of node and subnet
    states in :mod:`aodvcheck.awn` relies on this direction: it replaces
    a built state by an equal one built before, whose digest must be
    the same.
    The converse holds on the model's reached states too, and the node
    automata rely on it when they number node states by value: a
    ``ProcState`` digests the locations its control term stands for, and
    two terms of one table that a process can be at stand for the same
    locations only when they compare equal, a call comparing by the name
    it calls (see ``ProcState`` in :mod:`aodvcheck.awn`).  Values outside
    the model, such as two process terms built apart, can still digest
    equal and compare unequal.
    """
    enc = _encoders.get(type(x))
    if enc is None:
        enc = _encoder(type(x))
    return enc(x)


def struct_digest(tag: bytes, parts: tuple) -> bytes:
    """Digest of a tagged product of parts, each digested structurally."""
    return _hd(tag + b"".join(map(bdigest, parts)))
