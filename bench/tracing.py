"""Outside-in tracing of the twostage modules.

Spans are recorded by wrapping module attributes from the benchmark's side;
the program's source is not edited.  Each name is wrapped where the calling
module looks it up (``simulate._draw_hypotheses`` is called by name from
``twostage.simulate``, ``run_experiment`` from ``twostage.cli``), so the
wrapper sees every call the CLI makes.  A wrapped name that a later refactor
removes is reported as absent, and its time then shows up in the parent
span's self time.

A span is ``[name, start, end, parent]``; spans are kept in memory and
written out when the benchmark ends.  Self time is a span's duration minus
the durations of its direct children.  The tracer keeps a single stack, so a
traced run must be single-threaded (``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# Wraps the first `RandomStream.generator` access of each stream, which
# builds its Philox generator.
STREAM_SPAN = "dist.stream_build"
DRAW_SPAN = "simulate.draw"
FILTER_SPAN = "procedure.filter"

# (span name, module the caller looks the name up in, attribute)
TARGETS = (
    ("cli.main", "twostage.cli", "main"),
    ("simulate.experiment", "twostage.cli", "run_experiment"),
    ("simulate.cond_stats", "twostage.cli", "conditional_rejection_stats"),
    ("simulate.replication", "twostage.simulate", "run_replication"),
    (DRAW_SPAN, "twostage.simulate", "_draw_hypotheses"),
    ("estimators.pvalues", "twostage.simulate", "_joint_pvalues"),
    (FILTER_SPAN, "twostage.simulate", "filter_mask"),
    ("procedure.p0", "twostage.cli", "filtration_prob_at_theta0"),
    ("procedure.bound", "twostage.cli", "fwer_bound_from_survivors"),
    ("report.write", "twostage.cli", "write_simulation_report"),
    ("report.write", "twostage.cli", "write_mse_ratio_report"),
    ("asymptotics.classify", "twostage.cli", "classify_product_regime"),
    ("asymptotics.mse_ratio", "twostage.cli", "mse_ratio_experiment"),
    ("ingest.read", "twostage.cli", "read_observations"),
    ("ingest.fit", "twostage.cli", "ols_mediation_fit"),
)
SPAN_NAMES = tuple(dict.fromkeys([STREAM_SPAN] + [t[0] for t in TARGETS]))


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-span calls, total and self seconds, plus the derived counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        drawn_streams = 0
        for i, (name, start, end, _) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            if name == STREAM_SPAN and self._has_ancestor(i, DRAW_SPAN):
                drawn_streams += 1
        hyp = self.counts["hyp_drawn"]
        filtered_in = self.counts["filter_in"]
        counts = {
            "dist.hyp_per_stream": hyp / drawn_streams if drawn_streams else 0.0,
            "simulate.hyp_drawn": hyp,
            "procedure.survivor_frac": self.counts["survivors"] / filtered_in if filtered_in else 0.0,
        }
        return {"spans": out, "counts": counts}

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _count_draw(tracer: Tracer):
    def on_result(result):
        tracer.counts["hyp_drawn"] += int(np.size(result[0]))

    return on_result


def _count_filter(tracer: Tracer):
    def on_result(mask):
        mask = np.asarray(mask, dtype=bool)
        tracer.counts["filter_in"] += mask.size
        tracer.counts["survivors"] += int(mask.size - np.count_nonzero(mask))

    return on_result


class Instrumentation:
    """Resolves the wrap targets once; installs a tracer's wrappers on demand."""

    def __init__(self):
        self.absent: list[str] = []
        self._found: list[tuple] = []  # (span, owner, attr, original)
        for span, module, attr in TARGETS:
            owner = _import(module)
            original = getattr(owner, attr, None)
            if callable(original):
                self._found.append((span, owner, attr, original))
            else:
                self.absent.append(f"{module}.{attr}")
        stream_cls = getattr(_import("twostage.dist"), "RandomStream", None)
        self._stream_prop = vars(stream_cls).get("generator") if isinstance(stream_cls, type) else None
        if isinstance(self._stream_prop, property):
            self._stream_cls = stream_cls
        else:
            self._stream_prop = None
            self.absent.append("twostage.dist.RandomStream.generator")

    @contextmanager
    def install(self, tracer: Tracer):
        """Wrappers in place inside the block, originals restored on exit."""
        hooks = {DRAW_SPAN: _count_draw(tracer), FILTER_SPAN: _count_filter(tracer)}
        for span, owner, attr, original in self._found:
            setattr(owner, attr, tracer.wrap(span, original, hooks.get(span)))
        prop = self._stream_prop
        if prop is not None:
            build = tracer.wrap(STREAM_SPAN, prop.fget)

            def generator(stream):
                if getattr(stream, "_gen", None) is not None:
                    return prop.fget(stream)
                return build(stream)

            self._stream_cls.generator = property(generator, doc=prop.__doc__)
        try:
            yield tracer
        finally:
            for _, owner, attr, original in self._found:
                setattr(owner, attr, original)
            if prop is not None:
                self._stream_cls.generator = prop


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError:
        return None


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header row
        cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cumulative
