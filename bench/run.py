"""The aodvcheck benchmark: time to verdict on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement is a fresh
interpreter running bench/worker.py, one at a time, so no cache carries
over from one measurement to the next.  A run repeats the workload until
the next repetition would end after ``--seconds``, and always makes at
least one.  Before each of the first nine repetitions it times a set-up
(import, scenario, table, network) in a process of its own, and it makes
at least five.

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: the median of the set-ups;
- ``verdict_s``: the time from the automaton being built to the final
  verdict of one operation, that is one exploration including writing
  its counterexample file, or one seeded simulation.  Every repetition
  performs the same operations; the median over repetitions of each
  operation is taken, and the median over operations is reported;
- ``peak_rss_mb``: the median peak RSS of the measuring processes.

Both times are corrected for the speed of the box, which drifts by up to
1.8x for minutes at a time: each is scaled by a fixed reference loop
timed during it, in the same thread (see reference.py).  The
uncorrected wall times are printed beside them.

With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics (see workloads.PER_LAYER), plus the
tracing overhead: traced minus untraced ``verdict_s``.

Explorer workloads are deterministic; ``--seed N`` picks the simulation
batch, seeds 200N to 200N+199.  Human-readable lines come first; the
last line of standard output is one JSON object for tools.  With
``--workload all`` the four workloads run in turn, each printing its
lines and its JSON object.  Exit code 2 means the benchmark could not
run (for instance, no ``src/aodvcheck``).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import END_TO_END, EXPLORE, PER_LAYER, WORKLOADS  # noqa: E402

SETUPS = (9, 5)  # at most, at least
RUN_LIMIT_S = 170   # a run must end within 180 s, whatever its workers do


def _worker(workload, mode, seed, tiny, timeout):
    """Run one measurement; returns (result dict or None, seconds, error)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           "--mode", mode, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t, f"{mode} worker timed out"
    took = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, took, f"{mode} worker exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), took, None


def _cpu_loop_ms():
    """A fixed pure-Python loop; its time shows how loaded the box is."""
    t = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    return (time.perf_counter() - t) * 1e3


def _pct(values, q):
    """The q-quantile of ``values`` (nearest rank)."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def measure(workload, seed, seconds, trace, tiny):
    start = time.perf_counter()
    deadline = start + seconds

    def worker(mode):
        left = max(1.0, start + RUN_LIMIT_S - time.perf_counter())
        return _worker(workload, mode, seed, tiny, left)

    errors, setups = [], []
    most, least = (2, 2) if tiny else SETUPS

    def setup():
        res, _, err = worker("setup")
        if err:
            errors.append(err)
        else:
            setups.append((res["setup_s"], res["setup_wall_s"]))

    modes = ["run", "trace"] if trace else ["run"]
    reps = {m: [] for m in modes}
    took = {m: [] for m in modes}
    attempted = failed = 0
    i = 0
    while True:
        mode = modes[i % len(modes)]
        needed = i < len(modes)   # at least one repetition of each mode
        if not needed and took[mode]:
            if time.perf_counter() + statistics.median(took[mode]) > deadline:
                break
        t = time.perf_counter()
        # Set-ups are spread over the run, not made in one burst, so that
        # their median does not hang on one phase of a busy box.
        if len(setups) < most:
            setup()
        res, _, err = worker(mode)
        took[mode].append(time.perf_counter() - t)
        i += 1
        if err:
            errors.append(err)
            attempted += 1
            failed += 1
            continue
        reps[mode].append(res)
        attempted += res["ops"]
        failed += res["failed"]
        errors += res["errors"]
        if res.get("layers") and res["layers"]["trace.nesting_errors"]:
            errors.append("traced spans: children outlast their parent")
            failed += 1
    for _ in range(least - len(setups)):
        setup()
    return {"setups": setups, "reps": reps, "attempted": attempted,
            "failed": failed, "errors": errors,
            "elapsed": time.perf_counter() - start}


def rep_times(reps, key="times"):
    """Median operation time of each repetition."""
    return [statistics.median(done) for r in reps if (done := _done(r[key]))]


def _done(times):
    return [t for t in times if t is not None]


def verdict_s(reps, key="times"):
    """Median over the operations of each one's median repetition.

    Every repetition performs the same operations in the same order (one
    exploration, or the same batch of seeds).
    """
    return statistics.median(_done(
        statistics.median(d) if (d := _done(col)) else None
        for col in zip(*(r[key] for r in reps))))


def end_to_end(m):
    runs = m["reps"]["run"]
    return {
        "setup_s": statistics.median(s for s, _ in m["setups"]),
        "verdict_s": verdict_s(runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(m):
    runs, traced = m["reps"]["run"], m["reps"]["trace"]
    merged = [{**r["counts"], **r["layers"]} for r in traced]
    out = {name: statistics.median_low([d[name] for d in merged])
           for name in merged[0] if name in PER_LAYER}
    untraced = verdict_s(runs, "wall")
    with_spans = verdict_s(traced, "wall")
    out["trace.overhead_s"] = with_spans - untraced
    out["trace.overhead_frac"] = (with_spans - untraced) / untraced
    explore_s = [r["explore_s"] for r in runs if "explore_s" in r]
    for name in ("states", "transitions"):
        key = f"explore.{name}"
        out[key + "_per_s"] = (out[key] / min(explore_s)
                               if explore_s and out.get(key) else 0.0)
    for name in PER_LAYER:
        out.setdefault(name, 0)
    return out


def report(workload, seed, m, trace):
    """Human-readable lines; the caller prints the JSON line after them."""
    runs = m["reps"]["run"]
    lines = [f"workload {workload}  seed {seed}  "
             f"{len(m['setups'])} set-ups, {len(runs)} untraced"
             + (f" + {len(m['reps']['trace'])} traced" if trace else "")
             + f" repetitions in {m['elapsed']:.1f} s"]
    e2e = end_to_end(m)
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<18} {e2e[name]:.6g} {unit}")
    per_rep = rep_times(runs)
    lines.append(f"  {'verdict_s reps':<18} median {statistics.median(per_rep):.4g}"
                 f" s, range {min(per_rep):.4g} .. {max(per_rep):.4g} s")
    walls = rep_times(runs, "wall")
    lines.append(f"  {'verdict wall':<18} {verdict_s(runs, 'wall'):.6g} s,"
                 f" reps median {statistics.median(walls):.4g} s"
                 f", range {min(walls):.4g} .. {max(walls):.4g} s"
                 " (uncorrected)")
    lines.append(f"  {'setup wall':<18} median "
                 f"{statistics.median(w for _, w in m['setups']):.4g} s"
                 " (uncorrected)")
    times = [t for r in runs for t in _done(r["times"])]
    if WORKLOADS[workload]["kind"] != EXPLORE:
        run_s = sum(times)
        steps = sum(r["steps"] for r in runs)
        ops = sum(r["ops"] for r in runs)
        lines += [
            f"  {'sim.run_p50_ms':<18} {_pct(times, 0.5) * 1e3:.4g} ms"
            f"  ({len(times)} runs, corrected)",
            f"  {'sim.run_p95_ms':<18} {_pct(times, 0.95) * 1e3:.4g} ms",
            f"  {'sim.steps_per_s':<18} {steps / run_s:.6g} 1/s",
            f"  {'sim.detect_rate':<18} "
            f"{sum(r['detected'] for r in runs) / ops:.4g}"
            f"  ({runs[0]['detected']}/{runs[0]['ops']} per batch)",
        ]
    else:
        c = runs[0]["counts"]
        lines.append(f"  explored           {c['explore.states']} states, "
                     f"{c['explore.transitions']} transitions, "
                     f"depth {c['explore.depth']}")
    lines.append(f"  {'failed_frac':<18} {m['failed']}/{m['attempted']}")
    lines.append(f"  box: cpu_loop_ms {_cpu_loop_ms():.4g} "
                 "(fixed 300k-iteration loop; higher means a busier box)")
    for err in m["errors"][:10]:
        lines.append(f"  error: {err}")
    return lines


def run_one(workload, args):
    """Measure one workload and print its report and JSON line."""
    m = measure(workload, args.seed, args.seconds, bool(args.trace),
                args.tiny)
    measured = [rep_times(m["reps"][mode]) for mode in m["reps"]]
    if not m["setups"] or not all(measured):
        for err in m["errors"]:
            print(f"error: {err}", file=sys.stderr)
        print(f"error: no successful measurement of {workload}",
              file=sys.stderr)
        return False
    for line in report(workload, args.seed, m, args.trace):
        print(line)
    values = per_layer(m) if args.trace else end_to_end(m)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": m["failed"] == 0 and not m["errors"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' for each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (bound 4, 3 seeds)")
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "aodvcheck", "cli.py")):
        print(f"error: no aodvcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    ok = [run_one(name, args) for name in names]
    return 0 if all(ok) else 2


if __name__ == "__main__":
    sys.exit(main())
