"""Command-line front end.

Four subcommands share the scenario format: ``explore`` runs the
bounded explorer and writes a counterexample when a suite fails,
``replay`` re-derives such a counterexample file step by step,
``simulate`` runs a seeded schedule and writes an NDJSON trace, and
``graph`` re-runs a simulation to dump per-destination routing graphs,
optionally validating a previously written trace against it.

``replay`` checks the story a file tells, not only where it ends: each
step must be taken by the node the file names, render as the action it
names and reach a state of the digest it records, and the file's suite,
re-run where the path ends (a state suite on the last state, a step
suite on the last step), must give the file's witness.  ``graph`` writes
the same indented document, to ``--out`` or to standard output, whether
or not the trace matches; on a mismatch it lacks ``"validated": true``
and an error line follows on standard error.

Input files are read as UTF-8.  One that cannot be decoded, that is not
JSON, or that is nested too deeply to parse is an input error like any
other malformed file.

Exploration is deterministic: its report and counterexample file are
the same byte for byte on every run, whatever the hash seed.

Exit codes: 0 all checks passed (a reported depth-bound truncation
still exits 0) or a counterexample replayed, 1 a suite was violated or
a trace given to ``graph --trace`` does not match the re-run, 2 usage,
scenario, trace-file or counterexample-file errors (including
out-of-range numeric options, a trace or counterexample written in
another format or under other mutations than the scenario's, an output
file that cannot be written and a counterexample that does not
replay), 3 the state cap was hit before any suite was violated (a
violation found before the cap is reported and written as usual, with
exit code 1).  A reader that closes standard output early (``| head``)
ends the run quietly, with exit code 1 and no traceback.

A long ``explore`` run reports its progress on standard error, at the
end of a layer and at most once every ``PROGRESS_EVERY_S`` seconds, as
``progress: depth D  states S  transitions T  peak RSS M MB``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import warnings
from dataclasses import asdict, replace

from .awn import ModelError
from .canon import bdigest, quote
from .canon import digest, value_key  # noqa: F401  (bench/spans.py patches these names)
from .explore import (Counterexample, EnvNet, ResourceCapError, TraceStep,
                      check_theorem1, replay_end)
from .monitor import (ALL_SUITES, SuiteError, Verdict, check_state_invariants,
                      check_step_invariants, rt_graph, split_suites)
from .network import closed_net, net_data
from .protocol import build_table
from .scenario import Scenario, ScenarioError, load_scenario
from .simulate import ScheduleError, run
from .trace import TRACE_FORMAT, load_trace, write_trace
from .variants import VariantError, mutations_of, with_variant

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BROKEN_PIPE = 1  # what Python itself returns on EPIPE

PROGRESS_EVERY_S = 5.0
_clock = time.monotonic  # read by name, so that tests can set the time

# Counterexample files list each step by its branch rank and the digest
# of the state it reaches (see ``explore.replay``), and name the
# mutations the scenario switched on.
CX_FORMAT = "aodvcheck-cx-3"


class TraceFileError(Exception):
    """A trace given to ``graph --trace`` cannot be read or is outdated."""


class OutputError(Exception):
    """An output file cannot be written."""


class ReplayError(Exception):
    """A counterexample given to ``replay`` cannot be read or replayed."""


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write ``path`` into an :class:`OutputError`."""
    try:
        yield
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from None


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aodvcheck",
        description="check AODV route discovery on small networks")
    sub = p.add_subparsers(dest="command", required=True)

    names = ", ".join(sorted(ALL_SUITES))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario JSON file")
    common.add_argument("--variant", help="override the scenario's variant")
    common.add_argument("--suite", action="append",
                        help="comma-separated suites; repeated flags add up "
                             f"(default all: {names})")
    common.add_argument("--out", help="output file")

    e = sub.add_parser(
        "explore", parents=[common],
        help="bounded exhaustive exploration with invariants",
        description="Breadth-first exploration of the scenario's closed "
                    "network, checking the invariant suites.  The report and "
                    "the counterexample file are reproducible byte for byte.")
    e.add_argument("--bound", type=_int_at_least(0),
                   help="depth bound in expansion layers (>= 0)")
    e.add_argument("--state-cap", type=_int_at_least(1), default=None,
                   help="abort after this many stored states (>= 1)")

    # the options of the two commands that run the scenario's schedule
    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--seed", type=int, help="override the schedule seed")
    sched.add_argument("--steps", type=_int_at_least(1),
                       help="override the schedule length (>= 1)")

    s = sub.add_parser("simulate", parents=[common, sched],
                       help="seeded random run under the scenario schedule")
    s.add_argument("--dump-sigma", action="store_true",
                   help="include node state in every trace record")

    r = sub.add_parser(
        "replay", help="re-derive a counterexample file",
        description="Follow a counterexample file's steps through the "
                    "scenario's network, under the variant the file records, "
                    "checking the digest of every state reached.")
    r.add_argument("counterexample", help="counterexample JSON file")
    r.add_argument("scenario", help="scenario JSON file it was found in")

    g = sub.add_parser("graph", parents=[common, sched],
                       help="dump routing-table graphs from a simulation run")
    g.add_argument("--dip", type=int, action="append",
                   help="destination to graph (repeatable; default all)")
    g.add_argument("--trace", help="validate this trace against the re-run")
    return p


def _read_scenario(path: str) -> Scenario:
    """``load_scenario``, with each warning it gives as one stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_scenario(path)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _load(args) -> Scenario:
    sc = _read_scenario(args.scenario)
    if args.variant is not None:
        sc = replace(sc, cfg=with_variant(sc.cfg, args.variant))
    if args.suite is not None:
        names = tuple(n for arg in args.suite for n in arg.split(",") if n)
        split_suites(names)
        sc = replace(sc, suites=names)
    return sc


def _print_scenario(name: str, cfg, tail: str = "") -> None:
    """The report's first line, and a line naming the mutations when
    any is on, so that a failure is not read as the protocol's own."""
    print(f"scenario: {name} (variant {cfg.name}){tail}")
    mutations = mutations_of(cfg)
    if mutations:
        print("mutations:", " ".join(mutations))


def _progress():
    """An ``on_layer`` callback for ``explore`` that prints progress lines.

    A line is printed at the end of a layer once ``PROGRESS_EVERY_S``
    seconds have passed since the run started or since the last line.
    """
    last = _clock()

    def on_layer(rep):
        nonlocal last
        now = _clock()
        if now - last < PROGRESS_EVERY_S:
            return
        last = now
        # ru_maxrss is in KiB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"progress: depth {rep.depth}  states {rep.states}  "
              f"transitions {rep.transitions}  peak RSS {rss_mb:.1f} MB",
              file=sys.stderr, flush=True)

    return on_layer


def _cmd_explore(args) -> int:
    sc = _load(args)
    bound = args.bound if args.bound is not None else sc.bound
    kwargs = dict(suites=sc.suites, bound=bound, on_layer=_progress())
    if args.state_cap is not None:
        kwargs["state_cap"] = args.state_cap
    _print_scenario(sc.name, sc.cfg)
    try:
        rep = check_theorem1(sc.tree, sc.env, sc.cfg, **kwargs)
        cap = None
    except ResourceCapError as e:
        rep, cap = e.report, e
    print(f"states: {rep.states}  transitions: {rep.transitions}  "
          f"depth: {rep.depth}")
    if cap is not None:
        print(f"state cap hit: {cap}", file=sys.stderr)
        # a violation found before the cap is reported all the same
        if rep.holds:
            return EXIT_CAP
        print("exploration stopped at the state cap")
    elif rep.complete:
        print("exploration complete")
    elif rep.counterexamples:
        print("exploration stopped at first violating layer")
    else:
        print(f"exploration truncated at depth bound {bound} "
              "(all checks passed within it)")
    print("suites:", " ".join(rep.suites))
    if rep.holds:
        print("result: PASS")
        return EXIT_PASS
    cx = min(rep.counterexamples, key=lambda c: (c.depth, c.suite))
    print(f"result: FAIL ({len(rep.counterexamples)} counterexample(s))")
    print(f"violated: {cx.suite} ({cx.kind}) at depth {cx.depth}")
    print(f"witness: {cx.witness}")
    out = args.out or f"{sc.name}.cx.json"
    doc = {"format": CX_FORMAT, "scenario": sc.name,
           "variant": sc.cfg.name, "mutations": list(mutations_of(sc.cfg)),
           "suite": cx.suite, "kind": cx.kind,
           "witness": cx.witness, "depth": cx.depth,
           "digest": cx.digest, "steps": [asdict(st) for st in cx.steps]}
    with _writing(out), open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"counterexample: {out} ({cx.depth} step(s))")
    return EXIT_VIOLATION


# the fields of a counterexample file that replay reads, with their types
_CX_FIELDS = {"variant": str, "mutations": list, "suite": str, "kind": str,
              "witness": list, "digest": str, "steps": list}
_CX_STEP_FIELDS = {"origin": (int, type(None)), "action": str, "key": int,
                   "digest": str}


def _read_counterexample(path: str) -> dict:
    """The document of a counterexample file in the current format."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ReplayError(
            f"cannot read counterexample: {e.strerror or e}") from None
    # a document nested too deeply to parse is a RecursionError
    except (ValueError, RecursionError) as e:
        raise ReplayError(f"counterexample is not valid JSON: {e}") from None
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != CX_FORMAT:
        raise ReplayError(f"counterexample format {quote(found)} is not "
                          f"{CX_FORMAT!r}")
    rows = [(doc, _CX_FIELDS, "counterexample")]
    if isinstance(doc.get("steps"), list):
        rows += [(st, _CX_STEP_FIELDS, f"step {i}")
                 for i, st in enumerate(doc["steps"])]
    for obj, fields, what in rows:
        if not isinstance(obj, dict):
            raise ReplayError(f"{what} is not an object")
        for name, kind in fields.items():
            # JSON true/false load as bools, which Python counts as ints
            if (not isinstance(obj.get(name), kind)
                    or isinstance(obj.get(name), bool)):
                raise ReplayError(f"{what} has no valid {name!r}")
    # the witness in the explorer's form, to compare with the suite's
    try:
        doc["witness"] = _tuplify(doc["witness"])
    except RecursionError:
        raise ReplayError("counterexample witness is nested too "
                          "deeply") from None
    return doc


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def _recheck(table, cx, source, r) -> Verdict:
    """The verdict of ``cx``'s suite where its path ends.

    ``r`` is the path's last step, taken from ``source``, or None for a
    path of no steps.  A state suite is checked on the state the path
    reaches, and a step suite on the last step.
    """
    state, step = split_suites((cx.suite,))
    if cx.kind == "state" and state:
        final = source if r is None else r.target
        return check_state_invariants(final[0], table, state)
    if cx.kind == "step" and step and r is not None:
        return check_step_invariants((source[0], r, r.target[0]), table, step)
    raise ReplayError(f"a {quote(cx.kind)} counterexample of "
                      f"{len(cx.steps)} step(s) cannot violate "
                      f"{quote(cx.suite)}")


def _cmd_replay(args) -> int:
    doc = _read_counterexample(args.counterexample)
    sc = _read_scenario(args.scenario)
    mutations = list(mutations_of(sc.cfg))
    if doc["mutations"] != mutations:
        raise ReplayError(f"counterexample was written with mutations "
                          f"{quote(doc['mutations'])}, the scenario has "
                          f"{quote(mutations)}")
    cfg = with_variant(sc.cfg, doc["variant"])
    table = build_table(cfg)
    auto = EnvNet(closed_net(sc.tree, cfg, table), sc.env)
    # the file records no initial state, so the scenario must have one
    if len(auto.init) != 1:
        raise ReplayError(f"scenario has {len(auto.init)} initial states; "
                          "a counterexample file names none of them")
    (init,) = auto.init
    steps = tuple(TraceStep(st["origin"], st["action"], st["key"],
                            st["digest"]) for st in doc["steps"])
    cx = Counterexample(doc["suite"], doc["kind"], doc["witness"],
                        bdigest(init), steps, doc["digest"])
    try:
        source, r, final = replay_end(auto, cx)
        verdict = _recheck(table, cx, source, r)
    except ModelError as e:
        raise ReplayError(str(e)) from None
    if final != doc["digest"]:
        raise ReplayError("counterexample does not replay: its final state "
                          "has another digest")
    if verdict.witness != cx.witness:
        found = (f"witness {json.dumps(verdict.witness)}"
                 if verdict.witness is not None else "no violation")
        raise ReplayError(f"counterexample does not replay: {cx.suite} "
                          f"finds {found} where its path ends, not the "
                          "file's witness")
    _print_scenario(sc.name, cfg)
    print(f"replayed: {len(steps)} step(s) to the {doc['suite']} "
          f"({doc['kind']}) violation")
    print(f"final: {final}")
    return EXIT_PASS


def _run_schedule(sc: Scenario, args, dump_sigma=False):
    if sc.sched is None:
        raise ScenarioError("scenario has no 'schedule' section")
    sched = sc.sched
    if args.seed is not None:
        sched = replace(sched, seed=args.seed)
    if args.steps is not None:
        sched = replace(sched, max_steps=args.steps)
    return run(sc.tree, sched, sc.cfg, suites=sc.suites,
               dump_sigma=dump_sigma, scenario_name=sc.name), sched


def _cmd_simulate(args) -> int:
    sc = _load(args)
    res, sched = _run_schedule(sc, args, dump_sigma=args.dump_sigma)
    _print_scenario(sc.name, sc.cfg, f" seed {sched.seed}")
    print(f"steps: {res.steps}  stop: {res.stop}")
    for at, ip, data in res.delivered:
        print(f"delivered: {data!r} at node {ip} (step {at})")
    if res.pending_events:
        print(f"pending events: {len(res.pending_events)} never fired")
    if args.out:
        with _writing(args.out):
            write_trace(args.out, res.records)
        print(f"trace: {args.out}")
    if res.holds:
        print("result: PASS")
        return EXIT_PASS
    v = res.verdict
    print(f"result: FAIL\nviolated: {v.suite}\nwitness: {v.witness}")
    return EXIT_VIOLATION


def _read_trace(path: str) -> list:
    """Records of a trace file written in the current format."""
    try:
        records = load_trace(path)
    except OSError as e:
        raise TraceFileError(f"cannot read trace: {e}") from None
    except (ValueError, RecursionError) as e:
        raise TraceFileError(f"trace is not line-delimited JSON: {e}") from None
    head = records[0] if records else {}
    found = head.get("format") if isinstance(head, dict) else None
    if found != TRACE_FORMAT:
        raise TraceFileError(f"trace format {quote(found)} is not "
                             f"{TRACE_FORMAT!r}; re-run simulate to write a "
                             "current trace")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise TraceFileError(f"trace record {i} is not an object")
        if not isinstance(rec.get("final", ""), str):
            raise TraceFileError(f"trace record {i} has no valid 'final'")
    return records


def _cmd_graph(args) -> int:
    sc = _load(args)
    records = _read_trace(args.trace) if args.trace else None
    if records is not None:
        recorded = records[0].get("mutations")
        mutations = list(mutations_of(sc.cfg))
        if recorded != mutations:
            raise TraceFileError(f"trace was written with mutations "
                                 f"{quote(recorded)}, the scenario has "
                                 f"{quote(mutations)}")
    res, sched = _run_schedule(sc, args)
    sigma = net_data(res.final_state)
    nodes = frozenset(ip for ip, _ in sc.tree)
    dips = args.dip or sorted({d for data in sigma.values()
                               for d in data.rt})
    graphs = {}
    for dip in dips:
        g = rt_graph(sigma, dip, nodes)
        graphs[str(dip)] = sorted([a, b] for a, b in g.arcs)
    final = bdigest(res.final_state).hex()
    doc = {"scenario": sc.name, "variant": sc.cfg.name, "seed": sched.seed,
           "final": final, "graphs": graphs}
    recorded = None
    if records is not None:
        for rec in records:
            if "final" in rec:
                recorded = rec["final"]
        doc["trace_final"] = recorded
        if recorded == final:
            doc["validated"] = True
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(text)
        print(f"graphs: {args.out}")
    else:
        sys.stdout.write(text)
    if records is not None and recorded != final:
        print("error: trace does not match the re-run "
              f"({recorded} != {final})", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_PASS


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "explore":
            code = _cmd_explore(args)
        elif args.command == "replay":
            code = _cmd_replay(args)
        elif args.command == "simulate":
            code = _cmd_simulate(args)
        else:
            code = _cmd_graph(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Whatever is still
        # buffered goes to the null device, so that the flush at exit
        # cannot fail again, and the run ends quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OutputError, ReplayError, ScenarioError, ScheduleError,
            SuiteError, TraceFileError, VariantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
