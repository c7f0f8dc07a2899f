"""One measurement of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD --mode setup|run|trace --seed N [--tiny]

``setup`` times import, scenario loading, table building and network
building, and stops there; it then times the reference loop back to
back to correct that time for the box's speed (see reference.py).
``run`` performs the workload once, untraced: one exploration through
the CLI path, or one batch of seeded simulations.  ``trace`` does the
same with spans at every layer boundary (see spans.py).  Untraced runs
sample the reference loop throughout and report each operation's
corrected time beside its wall time; traced runs do not sample, so that
spans hold only the program.  Every mode checks its results and prints
one JSON object as the last line of standard output.

Each measurement runs in its own interpreter because the package keeps
caches at module level (``monitor._rt_verdicts``, ``canon._prim_digests``)
and on each table and automaton; a command-line user always starts cold.
"""
import time

T0 = time.perf_counter()  # first statement: set-up time counts from here

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from reference import Sampler  # noqa: E402
from workloads import EXPLORE, SPANS, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(HERE, ".out")
_clock = time.perf_counter


def _mod(name):
    # By full name: the package re-exports the function ``explore`` under
    # the module's own name, so ``import aodvcheck.explore as m`` is wrong.
    return importlib.import_module("aodvcheck." + name)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_package():
    pkg = _mod("cli").__file__
    if not os.path.abspath(pkg).startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"aodvcheck imported from {pkg}, not this checkout")


def _spec(name, tiny):
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(spec["tiny"])
    return spec


class Hooks:
    """Cheap wrappers, one call per operation, present in every mode."""

    def __init__(self):
        self.built = []     # perf_counter when each automaton was built
        self.reports = []   # ExplorationReport of each check_theorem1 call
        self.explore_s = []

        def after_build(fn):
            def closed_net(*args, **kwargs):
                auto = fn(*args, **kwargs)
                self.built.append(_clock())
                return auto
            return closed_net

        explore, simulate, cli = _mod("explore"), _mod("simulate"), _mod("cli")
        explore.closed_net = after_build(explore.closed_net)
        simulate.closed_net = after_build(simulate.closed_net)

        check, cap_error = cli.check_theorem1, explore.ResourceCapError

        def check_theorem1(*args, **kwargs):
            try:
                rep = check(*args, **kwargs)
            except cap_error as e:
                self.reports.append(e.report)
                raise
            self.reports.append(rep)
            return rep

        cli.check_theorem1 = check_theorem1
        bfs = explore.explore

        def timed_explore(*args, **kwargs):
            t = _clock()
            try:
                return bfs(*args, **kwargs)
            finally:
                self.explore_s.append(_clock() - t)

        explore.explore = timed_explore


def setup_only(spec):
    _check_package()
    sc = _mod("scenario").load_scenario(os.path.join(ROOT, spec["scenario"]))
    table = _mod("protocol").build_table(sc.cfg)
    _mod("network").closed_net(sc.tree, sc.cfg, table)
    end = _clock()
    sampler = Sampler()
    sampler.burst()
    setup_s, wall = sampler.correct(T0, end)
    return {"setup_s": setup_s, "setup_wall_s": wall}


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def _replay_check(spec, doc):
    """Replay a counterexample file through the public ``replay``."""
    explore, canon = _mod("explore"), _mod("canon")
    sc = _mod("scenario").load_scenario(os.path.join(ROOT, spec["scenario"]))
    auto = explore.EnvNet(_mod("network").closed_net(sc.tree, sc.cfg), sc.env)
    (init,) = auto.init
    steps = tuple(explore.TraceStep(s["origin"], s["action"],
                                    _tuplify(s["key"]), s["digest"])
                  for s in doc["steps"])
    cx = explore.Counterexample(doc["suite"], doc["kind"],
                                _tuplify(doc["witness"]), canon.bdigest(init),
                                steps, doc["digest"])
    final = explore.replay(auto, cx)
    return canon.digest(canon.value_key(final)) == doc["digest"]


def _timed(sampler, start, end):
    """(corrected, wall) seconds of [start, end]; equal when untimed."""
    if sampler is None:
        return end - start, end - start
    return sampler.correct(start, end)


def run_explore(name, spec, hooks, tracer, sampler):
    cli = _mod("cli")
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{name}.{os.getpid()}.cx.json")
    argv = ["explore", os.path.join(ROOT, spec["scenario"]), "--out", out]
    if spec["bound"] is not None:
        argv += ["--bound", str(spec["bound"])]
    if sampler is not None:
        sampler.start()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    end = _clock()
    if sampler is not None:
        sampler.stop()
    took, wall = _timed(sampler, hooks.built[0], end)
    res = {"times": [took], "wall": [wall], "peak_rss_mb": _peak_rss_mb(),
           "explore_s": hooks.explore_s[0], "ops": 1}
    rep = hooks.reports[0]
    layers = None
    if tracer is not None:
        layers = _layers(tracer)
        tracer.uninstall()

    exp = spec["expect"]
    errors = []
    got = {"exit": code, "states": rep.states, "transitions": rep.transitions,
           "depth": rep.depth, "complete": rep.complete}
    for key, val in got.items():
        if exp[key] != val:
            errors.append(f"{key}: expected {exp[key]}, got {val}")
    cx_bytes = 0
    if exp["suite"] is None:
        if rep.counterexamples:
            errors.append("unexpected counterexample")
    elif not rep.counterexamples:
        errors.append("no counterexample")
    else:
        cx = min(rep.counterexamples, key=lambda c: (c.depth, c.suite))
        if (cx.suite, cx.depth) != (exp["suite"], exp["depth"]):
            errors.append(f"counterexample {cx.suite} at depth {cx.depth}")
        cx_bytes = os.path.getsize(out)
        with open(out) as fh:
            doc = json.load(fh)
        if not _replay_check(spec, doc):
            errors.append("counterexample does not replay to its digest")
    if os.path.exists(out):
        os.remove(out)
    res["counts"] = {"explore.states": rep.states,
                     "explore.transitions": rep.transitions,
                     "explore.depth": rep.depth,
                     "explore.cx.count": len(rep.counterexamples),
                     "cli.cx_bytes": cx_bytes}
    res["failed"] = 1 if errors else 0
    res["errors"] = errors
    res["layers"] = layers
    return res


def run_simulate(spec, seed, hooks, tracer, sampler):
    cli, sim, canon = _mod("cli"), _mod("simulate"), _mod("canon")
    sc = cli.load_scenario(os.path.join(ROOT, spec["scenario"]))
    n = spec["seeds"]
    base = seed * n
    times, walls, errors = [], [], []
    steps = detected = failed = 0
    first = None
    intervals = []
    if sampler is not None:
        sampler.start()
    for s in range(base, base + n):
        sched = sim.Schedule(s, sc.sched.max_steps, sc.sched.events)
        t = _clock()
        try:
            r = sim.run(sc.tree, sched, sc.cfg, suites=sc.suites,
                        scenario_name=sc.name)
        except Exception as e:  # a crash is a failed operation, not the end
            failed += 1
            errors.append(f"seed {s}: {type(e).__name__}: {e}")
            intervals.append(None)
            continue
        intervals.append((t, _clock()))
        if tracer is not None:
            tracer.harvest()
        steps += r.steps
        if first is None:
            first = (s, r)
        if r.stop == "violation":
            detected += 1
            if r.verdict.suite != spec["suite"]:
                failed += 1
                errors.append(f"seed {s}: violated {r.verdict.suite}")
        elif r.stop not in ("quiescent", "max-steps"):
            failed += 1
            errors.append(f"seed {s}: stopped by {r.stop!r}")
    if sampler is not None:
        sampler.stop()
    for span in intervals:
        took, wall = _timed(sampler, *span) if span else (None, None)
        times.append(took)
        walls.append(wall)
    res = {"times": times, "wall": walls, "peak_rss_mb": _peak_rss_mb(),
           "ops": n, "steps": steps, "detected": detected}
    layers = None
    if tracer is not None:
        layers = _layers(tracer)
        tracer.uninstall()
    if seed == 0 and detected != spec["expect_detected_seed0"]:
        errors.append(f"detected {detected} of {n}, expected "
                      f"{spec['expect_detected_seed0']}")
        failed += 1
    if first is not None:
        s, r = first
        again = sim.run(sc.tree, sim.Schedule(s, sc.sched.max_steps,
                                              sc.sched.events),
                        sc.cfg, suites=sc.suites, scenario_name=sc.name)
        key = lambda x: (x.stop, x.steps,
                         canon.digest(canon.value_key(x.final_state)))
        if key(again) != key(r):
            errors.append(f"seed {s} does not reproduce its final digest")
            failed += 1
    res["counts"] = {"simulate.steps": steps}
    res["failed"] = failed
    res["errors"] = errors[:5]
    res["layers"] = layers
    return res


def _layers(tr):
    """Per-layer metrics from a finished traced operation."""
    tr.harvest()
    out = {}
    for name in SPANS:
        calls, self_s, _ = tr.span(name)
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    out["explore.cx.rebuild_s"] = tr.span("explore.cx")[2]

    def hit_rate(layer):
        calls = tr.span(layer)[0]
        return 1.0 - tr.misses.get(layer, 0) / calls if calls else 0.0

    for layer in ("awn.subnet.cast", "awn.node", "awn.node.cast"):
        out[layer + ".hit_rate"] = hit_rate(layer)
    lookups = sum(tr.span("monitor." + s)[0]
                  for s in ("hop-positivity", "quality", "loop-freedom"))
    misses = len(_mod("monitor")._rt_verdicts)
    out["monitor.rt_cache.hit_rate"] = 1.0 - misses / lookups if lookups else 0.0
    out["setup.load_s"] = tr.first("setup.load")
    out["setup.table_s"] = tr.first("setup.table")
    out["setup.net_s"] = tr.first("setup.net")
    out["trace.nesting_errors"] = tr.nesting_errors
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    spec = _spec(args.workload, args.tiny)
    if args.mode == "setup":
        res = setup_only(spec)
    else:
        _check_package()
        tracer = None
        if args.mode == "trace":
            import spans
            tracer = spans.Tracer()
            spans.instrument(tracer, simulate_order=spec["kind"] != EXPLORE)
        sampler = Sampler() if tracer is None else None
        hooks = Hooks()
        if spec["kind"] == EXPLORE:
            res = run_explore(args.workload, spec, hooks, tracer, sampler)
        else:
            res = run_simulate(spec, args.seed, hooks, tracer, sampler)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
