"""The benchmark's workloads and the metric names it reports.

Each workload names a scenario file (relative to the repository root),
how to run it, and what a correct run must produce.  ``tiny`` overrides
shrink a workload for the smoke test; their expectations were measured
the same way as the full ones.
"""

EXPLORE = "explore"
SIMULATE = "simulate"

WORKLOADS = {
    # The large bounded BFS with link changes: sibling ordering plus
    # bdigest dominate, and the node memo absorbs most node-layer calls.
    "explore-chain3-b32": {
        "kind": EXPLORE,
        "scenario": "scenarios/chain3.json",
        "bound": 32,
        "expect": {"exit": 0, "states": 40528, "transitions": 144992,
                   "depth": 32, "complete": False, "suite": None},
        "tiny": {"bound": 4,
                 "expect": {"exit": 0, "states": 65, "transitions": 132,
                            "depth": 4, "complete": False, "suite": None}},
    },
    # The only complete exploration (time to a complete exploration).  A
    # 4-node tree, so three levels of subnet cast delivery, and no link
    # events, so the environment wrapper is nearly idle.
    "explore-fig1-full": {
        "kind": EXPLORE,
        "scenario": "scenarios/fig1.json",
        "bound": None,
        "expect": {"exit": 0, "states": 12938, "transitions": 42770,
                   "depth": 102, "complete": True, "suite": None},
        "tiny": {"bound": 4,
                 "expect": {"exit": 0, "states": 5, "transitions": 4,
                            "depth": 4, "complete": False, "suite": None}},
    },
    # The only workload that rebuilds a counterexample and writes the
    # counterexample file, through the same path as `aodvcheck explore`.
    "cx-pair2-links": {
        "kind": EXPLORE,
        "scenario": "bench/scenarios/pair2_links_stale.json",
        "bound": None,
        "expect": {"exit": 1, "states": 10829, "transitions": 27993,
                   "depth": 58, "complete": False, "suite": "nsqn-monotone"},
        "tiny": {},
    },
    # Seeded simulation: every seed builds a fresh automaton, so the node
    # memo starts cold; no BFS, so visited-set and ordering changes in
    # the explorer should not move it.
    "sim-chain3-mut": {
        "kind": SIMULATE,
        "scenario": "bench/scenarios/chain3_stale.json",
        "seeds": 200,
        "suite": "nsqn-monotone",
        # violations among seeds 0..199 (the batch for --seed 0)
        "expect_detected_seed0": 198,
        "tiny": {"seeds": 3, "expect_detected_seed0": 3},
    },
}

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}

_SUITES = ("hop-positivity", "quality", "loop-freedom", "dispatch-msg",
           "sn-monotone", "nsqn-monotone", "rerr-grounded")

# Spans whose calls and self time are reported, by span name.
SPANS = (
    "explore", "explore.order", "explore.env", "explore.cx",
    "awn.closed", "awn.subnet", "awn.subnet.cast", "awn.node",
    "awn.node.cast", "awn.par", "awn.seq",
    "canon.bdigest", "canon.value_key", "canon.digest",
) + tuple("monitor." + s for s in _SUITES) + (
    "simulate.run", "simulate.order", "trace.render_action",
)

# Per-layer metric name -> unit, reported by the traced run.
PER_LAYER = {
    "explore.states": "count",
    "explore.transitions": "count",
    "explore.depth": "count",
    "explore.states_per_s": "1/s",
    "explore.transitions_per_s": "1/s",
    "explore.cx.count": "count",
    "explore.cx.rebuild_s": "s",
    "cli.cx_bytes": "bytes",
    "awn.subnet.cast.hit_rate": "fraction",
    "awn.node.hit_rate": "fraction",
    "awn.node.cast.hit_rate": "fraction",
    "monitor.rt_cache.hit_rate": "fraction",
    "simulate.steps": "count",
    "setup.load_s": "s",
    "setup.table_s": "s",
    "setup.net_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.nesting_errors": "count",
}
for _name in SPANS:
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".self_s"] = "s"
