"""Named protocol variants and error-seeding mutations.

Each variant is a :class:`~aodvcheck.protocol.VariantConfig` toggling
one behavioural choice in the process bodies:

* ``base``       the reference protocol
* ``no-rreqid``  route requests carry no request id; duplicates are
                 recognized by (originator, originator seqno) instead
* ``fwd-rrep``   intermediate nodes forward every route reply, not just
                 ones that improved their own table
* ``bcast-rerr`` no precursor bookkeeping; route errors go out as plain
                 broadcasts
* ``fwd-rreq``   even nodes that answer a request keep forwarding it,
                 marked handled so nobody answers twice

Mutations deliberately break the protocol and exist so the monitor has
something to catch; they are applied on top of a variant.
"""
from __future__ import annotations

from dataclasses import replace

from .canon import quote
from .protocol import BASE, VariantConfig

VARIANTS = {
    "base": BASE,
    "no-rreqid": VariantConfig(name="no-rreqid", use_rreq_id=False),
    "fwd-rrep": VariantConfig(name="fwd-rrep", forward_all_rreps=True),
    "bcast-rerr": VariantConfig(name="bcast-rerr", use_precursors=False),
    "fwd-rreq": VariantConfig(name="fwd-rreq", forward_handled_rreqs=True),
}

# each mutation turns on one VariantConfig switch
_MUTATION_SWITCHES = {"accept-stale-update": "accept_stale_update"}
MUTATIONS = tuple(_MUTATION_SWITCHES)


class VariantError(ValueError):
    pass


def get_variant(name: str) -> VariantConfig:
    try:
        return VARIANTS[name]
    except KeyError:
        known = ", ".join(sorted(VARIANTS))
        raise VariantError(f"unknown variant {quote(name)} (known: {known})") from None


def apply_mutations(cfg: VariantConfig, mutations) -> VariantConfig:
    for m in mutations:
        switch = _MUTATION_SWITCHES.get(m)
        if switch is None:
            known = ", ".join(MUTATIONS)
            raise VariantError(f"unknown mutation {quote(m)} (known: {known})")
        cfg = replace(cfg, **{switch: True})
    return cfg


def mutations_of(cfg: VariantConfig) -> tuple:
    """The mutations switched on in ``cfg``, in catalogue order."""
    return tuple(m for m, switch in _MUTATION_SWITCHES.items()
                 if getattr(cfg, switch))


def with_variant(cfg: VariantConfig, name: str) -> VariantConfig:
    """The variant ``name`` with the mutations applied to ``cfg``."""
    return apply_mutations(get_variant(name), mutations_of(cfg))
