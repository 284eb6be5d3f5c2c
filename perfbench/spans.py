"""Spans around calls into exosir's layers, installed from outside the package.

The modules import each other's functions by name, so a span has to wrap the
name the caller looks up: `exosir.cli.<fn>` for what the CLI imports,
`exosir.fitting.integrate`, `exosir.sweep.fit_linear`, the network module's
own globals, and the `ContactGraph.adjacency_matrix` method. Each span is
(name, start, end, parent index); a layer's self time is its busy time minus
the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict

import exosir.cli
import exosir.fitting
import exosir.model
import exosir.network
import exosir.sweep

MODULES = ("cli", "model", "sweep", "regression", "network", "ingest", "fitting", "fileio")

# The callback's identity selects integrate()'s inlined right-hand side, so
# wrapping it would change the code path being measured.
NOT_WRAPPED = {"exo_sir_rhs"}


def layer_name(fn) -> str:
    """`_fileio.csv_text` -> `fileio.csv_text`: metric names start with a letter."""
    module = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    return f"{module}.{fn.__qualname__}"


def _arg(fn, name):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Keeps the spans and counts of one traced pass in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name, count) for every wrapped name."""
        cli = exosir.cli
        n_steps = _arg(exosir.model.integrate, "n_steps")
        triples = _arg(exosir.sweep.run_sweep, "triples")

        def integrate_steps(counts, args, kwargs, result):
            counts["model.integrate.steps"] += n_steps(args, kwargs)

        def fitting_integrate(counts, args, kwargs, result):
            integrate_steps(counts, args, kwargs, result)
            counts["fitting.integrate_calls"] += 1

        counters = {
            "model.integrate": integrate_steps,
            "sweep.run_sweep": lambda c, a, k, r: c.update(
                {"sweep.run_sweep.runs": len(triples(a, k))}),
            "ingest.parse_raw_cases": lambda c, a, k, r: c.update(
                {"ingest.parse_raw_cases.rows": len(r[0]),
                 "ingest.parse_raw_cases.rejects": len(r[1].rejects)}),
            "fileio.csv_text": lambda c, a, k, r: c.update(
                {"fileio.csv_text.bytes": len(r.encode("utf-8"))}),
        }
        targets = [(cli, "main", "cli.main", None)]
        for attr, value in vars(cli).items():
            if (inspect.isfunction(value) and value.__module__ != cli.__name__
                    and attr not in NOT_WRAPPED):
                name = layer_name(value)
                targets.append((cli, attr, name, counters.get(name)))
        targets += [
            (exosir.fitting, "integrate", "model.integrate", fitting_integrate),
            (exosir.sweep, "fit_linear", "regression.fit_linear", None),
            (exosir.network, "generate_ba_graph", "network.generate_ba_graph", None),
            (exosir.network, "run_simulation", "network.run_simulation", None),
            (exosir.network, "step", "network.step", None),
            (exosir.network.ContactGraph, "adjacency_matrix",
             "network.ContactGraph.adjacency_matrix", None),
        ]
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, count in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict, dict, Counter]:
        """Busy seconds, self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[index]
            calls[name] += 1
        return busy, own, calls


# Per-layer metrics, per traced pass. Counts must repeat exactly for a fixed seed.
TIMES = (
    "sweep.run_sweep.busy_s", "sweep.scale_log_peaks.busy_s", "regression.fit_linear.busy_s",
    "network.generate_ba_graph.busy_s", "network.step.busy_s",
    "network.ContactGraph.adjacency_matrix.busy_s", "network.run_simulation.self_s",
    "model.integrate.busy_s", "model.integrate_sir.busy_s",
    "fitting.counterfactual_runs.self_s",
    "ingest.parse_raw_cases.busy_s", "ingest.parse_states_daily.busy_s",
    "ingest.parse_event_counts.busy_s",
    "fileio.csv_text.busy_s", "fileio.atomic_write_text.busy_s", "cli.main.self_s",
)
CALLS = ("network.generate_ba_graph", "network.step", "model.integrate",
         "fitting.counterfactual_runs")
COUNTS = tuple(f"{name}.calls" for name in CALLS) + (
    "sweep.run_sweep.runs", "sweep.late_peak_runs", "model.integrate.steps",
    "fitting.integrate_calls", "ingest.parse_raw_cases.rows",
    "ingest.parse_raw_cases.rejects", "fileio.csv_text.bytes",
    "fileio.atomic_write_text.files",
)
UNITS = {**{name: "s" for name in TIMES}, **{name: "count" for name in COUNTS},
         "fileio.csv_text.bytes": "bytes",
         **{f"share.{module}": "ratio" for module in MODULES},
         "fitting.useful_integrate_ratio": "ratio", "trace.pass_s": "s",
         "trace.overhead_s": "s"}


def pass_layers(tracer: Tracer, check_counts: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer times and module shares, and the exact-repeat counts, of one traced pass.

    A module's share is the self time of its spans over the time inside cli.main.
    """
    busy, own, calls = tracer.summary()
    times = {}
    for metric in TIMES:
        name, kind = metric.rsplit(".", 1)
        times[metric] = (busy if kind == "busy_s" else own).get(name, 0.0)
    total = busy.get("cli.main", 0.0)
    for module in MODULES:
        spent = sum(v for name, v in own.items() if name.split(".", 1)[0] == module)
        times[f"share.{module}"] = spent / total if total else 0.0
    counts = Counter(tracer.counts)
    counts.update(check_counts)
    counts.update({f"{name}.calls": calls[name] for name in CALLS})
    counts["fileio.atomic_write_text.files"] = calls["fileio.atomic_write_text"]
    return times, {name: counts[name] for name in COUNTS}


def useful_integrate_ratio(counts: dict[str, int]) -> float:
    """2 x fits / integrate calls made by fitting; 0 when the workload fits nothing."""
    calls = counts["fitting.integrate_calls"]
    return 2 * counts["fitting.counterfactual_runs.calls"] / calls if calls else 0.0


def span_table(tracer: Tracer) -> list[tuple[str, float, float, int]]:
    """(name, busy_s, self_s, calls) per span name, busiest first."""
    busy, own, calls = tracer.summary()
    return sorted(((name, busy[name], own[name], calls[name]) for name in busy),
                  key=lambda row: -row[1])
