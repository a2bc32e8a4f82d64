"""Span recorder installed from outside the package.

Tracing rebinds module attributes of modfold to wrappers, so every caller
that looks the name up at call time (other modules imported it by name,
which the rebinding also covers) goes through the wrapper.  Nothing under
src/ is edited.  Three kinds of wrapper:

  span     records (name, start, end, parent, run id, failed) per call;
  counter  counts calls and accumulates time without a span, for functions
           too cheap for one (_splitmix64 takes about 0.6 us), and charges
           that time to the enclosing span so its self time excludes it;
  tap      passes the result to a hook, with no timing at all.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans and counters cover.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter_ns

# (module, attribute, span name).  The public functions as their callers
# see them, plus the internal boundaries the per-layer metrics need.
SPANS = (
    ("modfold.cli", "main", "cli.main"),
    ("modfold.simulate", "run_trials", "simulate.run_trials"),
    ("modfold.robust", "_solve_with_plan", "robust.solve"),
    ("modfold.robust", "solve_folding", "robust.solve_folding"),
    ("modfold.robust", "theta_bound", "robust.theta_bound"),
    ("modfold.robust", "select_reference", "robust.select_reference"),
    ("modfold.robust", "per_remainder_bounds", "robust.per_remainder_bounds"),
    ("modfold.robust", "prune_redundant", "robust.prune_redundant"),
    ("modfold.multistage", "reconstruct_tree", "multistage.reconstruct_tree"),
    ("modfold.multistage", "stage_bounds", "multistage.stage_bounds"),
    ("modfold.multistage", "_TreeProgram.run", "multistage.tree_run"),
    ("modfold.grouping", "propose_grouping", "grouping.propose"),
    ("modfold.congruence", "crt_general", "congruence.crt_general"),
)
COUNTERS = (
    ("modfold.simulate", "_splitmix64", "simulate.rng"),
    ("modfold.intmath", "mod_inverse", "intmath.mod_inverse"),
)
TAPS = (("modfold.grouping", "minimal_covers", "grouping.covers"),)

BOUNDS_SPANS = frozenset(
    (
        "robust.theta_bound",
        "robust.select_reference",
        "robust.per_remainder_bounds",
        "robust.prune_redundant",
    )
)

# span record fields
NAME, START, END, PARENT, RUN, COUNTED, FAILED = range(7)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.tallies: dict[str, int] = {}
        self.labels: dict[int, str] = {}
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, run: int, label: str | None = None) -> None:
        """Start a request: later spans carry this run id."""
        self.run = run
        if label is not None:
            self.labels[run] = label

    def tally(self, key: str, amount: int) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.run, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self.counters.setdefault(name, [0, 0])
        spans, stack = self.spans, self._stack

        def wrapper(*args):
            t0 = perf_counter_ns()
            result = fn(*args)
            dt = perf_counter_ns() - t0
            cell[0] += 1
            cell[1] += dt
            if stack:
                spans[stack[-1]][COUNTED] += dt
            return result

        return wrapper

    def _tap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.tally(name, len(result))
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "simulate.run_trials": self._on_trials,
            "grouping.propose": self._on_proposal,
        }
        for mod, attr, name in SPANS:
            self._rebind(mod, attr, lambda f, n=name: self._span(n, f, hooks.get(n)))
        for mod, attr, name in COUNTERS:
            self._rebind(mod, attr, lambda f, n=name: self._counter(n, f))
        for mod, attr, name in TAPS:
            self._rebind(mod, attr, lambda f, n=name: self._tap(n, f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, mod, attr, make) -> None:
        owner = importlib.import_module(mod)
        if "." in attr:  # a method: patch the class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, original, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        # every modfold module that imported the name holds its own binding
        for name, module in list(sys.modules.items()):
            if name == "modfold" or name.startswith("modfold."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _on_trials(self, stats) -> None:
        self.tally("simulate.trials", stats.trials)
        self.tally("simulate.estimated", stats.estimated_trials)

    def _on_proposal(self, proposal) -> None:
        self.tally("grouping.searches", 1)
        self.tally("grouping.successes", proposal.verdict == "success")

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, failures, total and self ns, outer ns.

        outer_ns sums only spans whose parent is not a bounds span, so that
        nested bound calls (per_remainder_bounds calling theta_bound) are
        not counted twice in the robust.bounds total.
        """
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = {}
        for i, s in enumerate(spans):
            name = self.names[s[NAME]]
            agg = out.setdefault(
                name,
                {"calls": 0, "failures": 0, "total_ns": 0, "self_ns": 0,
                 "outer_ns": 0},
            )
            dur = s[END] - s[START]
            agg["calls"] += 1
            agg["failures"] += s[FAILED]
            agg["total_ns"] += dur
            agg["self_ns"] += dur - child[i] - s[COUNTED]
            parent = s[PARENT]
            if parent < 0 or self.names[spans[parent][NAME]] not in BOUNDS_SPANS:
                agg["outer_ns"] += dur
        return out

    def label_p50_ns(self, span_name: str, label: str) -> tuple[float, int]:
        """Median duration of the named spans in runs with this label."""
        durations = [
            s[END] - s[START]
            for s in self.spans
            if self.names[s[NAME]] == span_name
            and self.labels.get(s[RUN]) == label
        ]
        return (statistics.median(durations) if durations else 0.0), len(durations)

    def write(self, path) -> None:
        """Write every span as one CSV line, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,run,failed\n")
            for s in self.spans:
                fh.write(
                    f"{self.names[s[NAME]]},{s[START] - t0},{s[END] - t0},"
                    f"{s[PARENT]},{s[RUN]},{int(s[FAILED])}\n"
                )
