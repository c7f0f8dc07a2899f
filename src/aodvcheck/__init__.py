"""Executable process-calculus semantics for AODV route discovery.

The package builds wireless network models bottom-up: sequential
protocol processes over routing-table data, message queues composed in
parallel per node, nodes wired into a partial network by connectivity,
and the whole thing closed off so only protocol actions remain.  On top
of that sit an invariant monitor, a bounded explorer, and a seeded
simulator, all driven from one scenario format.
"""

from .canon import FrozenMap, digest, value_key
from .explore import (Counterexample, EnvMenu, EnvNet, ExplorationReport,
                      ResourceCapError, check_theorem1, env_menu, explore,
                      invariant, reachable, replay, step_invariant)
from .messages import Newpkt, Pkt, Rerr, Rrep, Rreq
from .monitor import ALL_SUITES, Verdict, check_state_invariants, rt_graph
from .network import build_net, closed_net, net_data
from .protocol import BASE, AodvData, VariantConfig, aodv_init, build_table
from .routing import RouteEntry, update_route
from .variants import VARIANTS, apply_mutations, get_variant

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES", "AodvData", "BASE", "Counterexample", "EnvMenu",
    "EnvNet", "ExplorationReport", "FrozenMap", "Newpkt", "Pkt", "Rerr",
    "ResourceCapError", "RouteEntry", "Rrep", "Rreq",
    "VARIANTS", "VariantConfig", "Verdict", "aodv_init", "apply_mutations",
    "build_net", "build_table", "check_state_invariants", "check_theorem1",
    "closed_net", "digest", "env_menu", "explore", "get_variant",
    "invariant", "net_data", "reachable", "replay", "rt_graph",
    "step_invariant", "update_route", "value_key",
]
