"""The names the benchmark's tracer patches and its worker reads still exist.

``bench/spans.py`` times each layer by replacing module-level names and
methods of the package from outside it, and ``bench/worker.py`` checks
each run through more of the package (the scenario's fields, the
network builder, the simulator, counterexample replay, the digests and
the monitor's cache).  A rename or deletion in the package would
otherwise only show up when the benchmark itself runs.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from helpers import fresh_tables

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location(
        "aodvcheck_bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    mods = {m: importlib.import_module("aodvcheck." + m)
            for m in ("awn", "canon", "cli", "explore", "messages",
                      "monitor", "protocol", "simulate")}
    names = {(m, name): getattr(mod, name) for m, mod in mods.items()
             for name in vars(mod) if not name.startswith("__")}
    names["RichStep.canon_key"] = mods["awn"].RichStep.canon_key
    return names


def test_instrument_installs_and_uninstalls(spans, monkeypatch):
    # The tables are new, so that the search digests states of its own:
    # node states that earlier tests reached carry their digests.
    fresh_tables(monkeypatch)
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, simulate_order=True)
        explore = importlib.import_module("aodvcheck.explore")
        scenario = importlib.import_module("aodvcheck.scenario")
        sc = scenario.load_scenario(os.path.join(ROOT, "scenarios",
                                                 "pair2.json"))
        rep = explore.check_theorem1(sc.tree, sc.env, sc.cfg, bound=3)
        assert rep.states > 1
        for name in ("explore", "explore.order", "explore.env",
                     "canon.bdigest", "awn.closed", "awn.node",
                     "monitor.loop-freedom"):
            assert tracer.span(name)[0] > 0, name
        assert tracer.nesting_errors == 0
    finally:
        tracer.uninstall()
    assert _namespaces() == before


def test_traced_search_builds_only_new_states(spans, monkeypatch):
    # The tracer wraps every suite; the search must still hand the step
    # suites the successor's parts, and build a root state only when it
    # is new, as it does untraced.
    explore = importlib.import_module("aodvcheck.explore")
    scenario = importlib.import_module("aodvcheck.scenario")
    built = [0]
    join_parts = explore.join_parts

    def counting(parts):
        built[0] += 1
        return join_parts(parts)

    monkeypatch.setattr(explore, "join_parts", counting)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        sc = scenario.load_scenario(os.path.join(ROOT, "scenarios",
                                                 "chain3.json"))
        rep = explore.check_theorem1(sc.tree, sc.env, sc.cfg, bound=20)
        assert tracer.span("monitor.sn-monotone")[0] == rep.transitions
    finally:
        tracer.uninstall()
    assert built[0] == rep.states - 1 == 5627


@pytest.mark.parametrize("mode", ["run", "trace"])
@pytest.mark.parametrize("workload", ["cx-pair2-links", "sim-chain3-mut"])
def test_worker_checks_its_own_results(workload, mode):
    # the small versions of the workloads that replay a counterexample
    # file and that simulate seeds, untraced and traced; about 2 s in all
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "worker.py"), workload,
         "--mode", mode, "--tiny"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert res["failed"] == 0, res["errors"]
