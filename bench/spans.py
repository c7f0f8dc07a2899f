"""Spans around the calls into each layer of aodvcheck, from outside it.

``Tracer.wrap`` returns a function that times each call of the wrapped
one as a span.  A span's parent is the span open when it started, and
its self time is its duration minus the time its direct children took;
calls nest strictly on one thread, so that is the part of the span its
children cover.  A traced chain3 run closes millions of spans, so each
is folded into per-name totals as it closes instead of being kept.
Every close also checks that the children's time does not exceed the
span's own duration; ``nesting_errors`` counts the spans where it did.

``instrument`` installs the wrappers.  It patches names in the modules'
namespaces (the names the callers look up) and records them so that
``Tracer.uninstall`` can put them back, and it wraps the methods of each
automaton instance as it is built.
"""
import importlib
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.ids = {}
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.firsts = []      # duration of each name's first span
        self.stack = []
        self.nesting_errors = 0
        self.memos = []       # (layer, memo dict) of automata built so far
        self.misses = {}      # layer -> memo entries added, harvested
        self._patched = []

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.calls)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.firsts.append(None)
        return nid

    def wrap(self, name, fn):
        nid = self._id(name)
        calls, self_s, total_s, firsts = (self.calls, self.self_s,
                                          self.total_s, self.firsts)
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0]   # time covered by this span's children
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                child = frame[0]
                if child > dur + 1e-9:
                    self.nesting_errors += 1
                self_s[nid] += dur - child
                total_s[nid] += dur
                if calls[nid] == 0:
                    firsts[nid] = dur
                calls[nid] += 1
                if stack:
                    stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def patch(self, obj, attr, name):
        """Replace ``obj.attr`` by a traced version named ``name``."""
        orig = getattr(obj, attr)
        self._patched.append((obj, attr, orig))
        setattr(obj, attr, self.wrap(name, orig))

    def replace(self, obj, attr, new):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    def harvest(self):
        """Count the memo entries of the automata built so far, then drop them."""
        for layer, memo in self.memos:
            self.misses[layer] = self.misses.get(layer, 0) + len(memo)
        self.memos.clear()

    def span(self, name):
        """(calls, self seconds, total seconds) of the spans named ``name``."""
        nid = self.ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    def first(self, name):
        nid = self.ids.get(name)
        return 0.0 if nid is None or self.firsts[nid] is None else self.firsts[nid]


def _mod(name):
    # ``import aodvcheck.explore as m`` would bind the function the package
    # re-exports under that name, so modules are fetched by full name.
    return importlib.import_module("aodvcheck." + name)


def _wrap_automaton(tr, auto):
    """Wrap the step methods of every automaton in a built network tree."""
    awn = _mod("awn")
    todo = [auto]
    while todo:
        a = todo.pop()
        if isinstance(a, awn.ClosedAutomaton):
            a.rich_steps = tr.wrap("awn.closed", a.rich_steps)
            todo.append(a.net)
        elif isinstance(a, awn.SubnetAutomaton):
            a.rich_steps = tr.wrap("awn.subnet", a.rich_steps)
            a.cast_delivery = tr.wrap("awn.subnet.cast", a.cast_delivery)
            tr.memos.append(("awn.subnet.cast", a._cast_memo))
            todo += [a.left, a.right]
        elif isinstance(a, awn.NodeAutomaton):
            a.rich_steps = tr.wrap("awn.node", a.rich_steps)
            a.cast_delivery = tr.wrap("awn.node.cast", a.cast_delivery)
            tr.memos.append(("awn.node", a._steps_memo))
            tr.memos.append(("awn.node.cast", a._cast_memo))
            todo.append(a.inner)
        elif isinstance(a, awn.ParAutomaton):
            a.steps = tr.wrap("awn.par", a.steps)
            todo += [a.left, a.right]
        elif isinstance(a, awn.SeqAutomaton):
            a.steps = tr.wrap("awn.seq", a.steps)
        else:
            raise TypeError(f"unknown automaton {type(a).__name__}")


def _traced_checks(tr, factory):
    def checks(table, names=None):
        return [(n, tr.wrap("monitor." + n, fn)) for n, fn in factory(table, names)]
    return checks


def instrument(tr, simulate_order=False):
    """Install spans at every layer boundary of the loaded package.

    ``simulate_order`` also traces ``RichStep.canon_key``, which only the
    simulator's sibling sort calls in a run; elsewhere it would charge
    counterexample replay to the simulator.
    """
    awn, explore, simulate, cli = (_mod(m) for m in
                                   ("awn", "explore", "simulate", "cli"))
    for m in (awn, explore, _mod("monitor")):
        tr.patch(m, "bdigest", "canon.bdigest")
    for m in (awn, explore, simulate, cli, _mod("messages"), _mod("protocol")):
        tr.patch(m, "value_key", "canon.value_key")
    for m in (explore, simulate, cli):
        tr.patch(m, "digest", "canon.digest")
    for m in (explore, simulate):
        tr.patch(m, "render_action", "trace.render_action")
        tr.replace(m, "state_checks", _traced_checks(tr, m.state_checks))
        tr.replace(m, "step_checks", _traced_checks(tr, m.step_checks))
        tr.patch(m, "build_table", "setup.table")
        net = tr.wrap("setup.net", m.closed_net)

        def closed_net(*args, _net=net, **kwargs):
            auto = _net(*args, **kwargs)
            _wrap_automaton(tr, auto)
            return auto

        tr.replace(m, "closed_net", closed_net)
    tr.patch(cli, "load_scenario", "setup.load")

    tr.patch(explore, "explore", "explore")
    tr.patch(explore, "_sorted_steps", "explore.order")
    tr.patch(explore, "_finish", "explore.cx")
    env_net = explore.EnvNet

    def traced_env_net(net, env):
        auto = env_net(net, env)
        auto.rich_steps = tr.wrap("explore.env", auto.rich_steps)
        return auto

    tr.replace(explore, "EnvNet", traced_env_net)
    tr.patch(simulate, "run", "simulate.run")
    if simulate_order:
        tr.patch(awn.RichStep, "canon_key", "simulate.order")
