"""Canonical encodings of model values.

Every state, message and action in the model can be turned into a nested
tuple of plain ints/strings.  Those keys serve three purposes: they make
sets and maps of model values sortable in a reproducible order, they act
as visited-set keys during exploration, and they feed the state digests
written to trace files.  Nothing here may depend on object identity or
on Python's randomized string hashing.
"""
from __future__ import annotations

import hashlib
from collections.abc import Mapping
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
            object.__setattr__(self, "_hash", hash(frozenset(self._d.items())))
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


def value_key(x: Any) -> tuple:
    """Nested-tuple encoding of a model value, total over the model's types."""
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
    ck = getattr(x, "canon_key", None)
    if ck is not None:
        return ck()
    raise TypeError(f"no canonical encoding for {type(x).__name__}: {x!r}")


def digest(x: Any) -> str:
    """Stable hex digest of a value's canonical key (32 hex chars)."""
    key = x if isinstance(x, tuple) else value_key(x)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]


def cached_key(obj: Any, build) -> tuple:
    """Lazily attach a canonical key to a frozen dataclass instance."""
    k = obj.__dict__.get("_ckey")
    if k is None:
        k = build()
        object.__setattr__(obj, "_ckey", k)
    return k


def _hd(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:16]


_PRIM = (int, str)  # covers bool; None is handled separately
_prim_digests: dict = {}


def _flat(x: tuple) -> bool:
    """True when ``x`` nests nothing but primitives (repr is injective)."""
    for v in x:
        if v is None or isinstance(v, _PRIM):
            continue
        if isinstance(v, tuple) and _flat(v):
            continue
        return False
    return True


def bdigest(x: Any) -> bytes:
    """Compact structural digest (16 bytes) of a model value.

    Composite values hash over their parts' digests, so after a small
    change to a large state only the spine that changed is re-hashed.
    Model classes either provide ``canon_digest`` or fall back to a
    digest of their canonical key, cached per instance.  Two values
    digest equal exactly when their canonical keys are equal (modulo
    hash collisions).
    """
    if x is None or isinstance(x, _PRIM):
        k = (x.__class__, x)
        b = _prim_digests.get(k)
        if b is None:
            b = _hd(b"p" + repr(x).encode("utf-8"))
            if len(_prim_digests) < (1 << 20):
                _prim_digests[k] = b
        return b
    if isinstance(x, tuple):
        if _flat(x):
            return _hd(b"q" + repr(x).encode("utf-8"))
        return _hd(b"t" + b"".join(map(bdigest, x)))
    if isinstance(x, (set, frozenset)):
        return _hd(b"s" + b"".join(sorted(map(bdigest, x))))
    cd = getattr(x, "canon_digest", None)
    if cd is not None:
        return cd()
    d = getattr(x, "__dict__", None)
    if d is not None:
        b = d.get("_bdg")
        if b is None:
            b = _hd(b"k" + repr(x.canon_key()).encode("utf-8"))
            object.__setattr__(x, "_bdg", b)
        return b
    return _hd(b"k" + repr(value_key(x)).encode("utf-8"))


def struct_digest(tag: bytes, parts: tuple) -> bytes:
    """Digest of a tagged product of parts, each digested structurally."""
    return _hd(tag + b"".join(map(bdigest, parts)))
