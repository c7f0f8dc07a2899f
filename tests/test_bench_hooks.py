"""The names the benchmark's tracer patches still exist.

``bench/spans.py`` times each layer by replacing module-level names and
methods of the package from outside it.  A rename or deletion in the
package would otherwise only show up when the benchmark itself runs.
"""
import importlib
import importlib.util
import os

import pytest

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


def test_instrument_installs_and_uninstalls(spans):
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
