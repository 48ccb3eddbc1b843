"""Spans around the calls into ratcoord's modules, for the traced run only.

While a Tracer is entered, the module attributes in TRACE_POINTS are
replaced by wrappers that record one span per call: name, start, end, the
index of the enclosing span and the operation id.  Each wrapper also
clocks its own bookkeeping outside the call it wraps; the sum is the
tracing overhead.  Leaving the Tracer puts the original attributes back,
so untraced runs execute the unmodified program.  Spans stay in memory
until the run ends; layer_metrics() turns them into the per-layer metrics.

A module attribute is patched where it is looked up: ``ratcoord.cli`` binds
its helpers by name at import, while ``ratcoord.semilinear``,
``ratcoord.automaton`` and ``ratcoord.periodic_graph`` reach the kernels
through the ``ratcoord._kernels`` module.  The same function can therefore
be traced under two names, e.g. ``enumerate_in_box`` as called from the CLI
(the doubled-box check) and from inside ``semilinear`` (the box of the
decomposition).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name, size of the result recorded with the span)
TRACE_POINTS = (
    ("ratcoord.cli", "pipeline_coordination_gf", "cli.pipeline", None),
    ("ratcoord.cli", "symbolic_coordination_gf", "cli.symbolic", None),
    ("ratcoord.cli", "bfs_coordination", "periodic_graph.bfs", lambda seq: sum(seq.values)),
    ("ratcoord.cli", "build_coordination_nfa", "automaton.build_nfa",
     lambda nfa: len(nfa.distinct_transitions)),
    ("ratcoord.cli", "parikh_image", "automaton.parikh_image", lambda s: len(s.parts)),
    ("ratcoord.cli", "run_parikh_oracle", "automaton.run_oracle", None),
    ("ratcoord.cli", "disambiguate", "semilinear.disambiguate", lambda s: len(s.parts)),
    ("ratcoord.cli", "enumerate_in_box", "semilinear.enumerate_in_box", len),
    ("ratcoord.cli", "fit_rational", "genfunc.fit", lambda gf: len(gf.den) - 1),
    ("ratcoord.cli", "gf_unambiguous_linear", "genfunc.gf_sum", None),
    ("ratcoord.cli", "series_coeffs", "genfunc.series", None),
    ("ratcoord.semilinear", "enumerate_in_box", "semilinear.box", len),
    ("ratcoord.semilinear", "validate_decomposition", "semilinear.validate", None),
    ("ratcoord.semilinear", "count_representations", "semilinear.count_representations", None),
    ("ratcoord._kernels", "bfs_layer_counts", "kernels.bfs_layer_counts", None),
    ("ratcoord._kernels", "accepting_run_profiles", "kernels.accepting_run_profiles", len),
    ("ratcoord._kernels", "linear_points_in_box", "kernels.linear_points_in_box", len),
)

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, size]
        self.op = None
        self.overhead_s = 0.0  # time spent in the wrappers outside the calls
        self._stack = []
        self._saved = []

    def _wrap(self, name, function, size):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            self.overhead_s += time.perf_counter() - entered - (span[END] - span[START])
            return result

        return traced

    def __enter__(self):
        for module_name, attribute, name, size in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original, size))
        return self

    def __exit__(self, *exc_info):
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def write(self, path):
        """One JSON list per span: name, start, end, parent, op, size."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans, report_bytes):
    """Per-layer metrics, summed over the spans of one traced round.

    Returns {metric: (value, unit)}.  Self time is a span's duration minus
    the durations of its direct children.
    """
    seconds = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    children = defaultdict(float)
    for name, start, end, parent, _, size in spans:
        seconds[name] += end - start
        calls[name] += 1
        sizes[name] += size or 0
        if parent is not None:
            children[parent] += end - start

    def under_disambiguate(name):
        return [
            span for span in spans
            if span[NAME] == name and span[PARENT] is not None
            and spans[span[PARENT]][NAME] == "semilinear.disambiguate"
        ]

    disambiguate_self = sum(
        span[END] - span[START] - children[index]
        for index, span in enumerate(spans)
        if span[NAME] == "semilinear.disambiguate"
    )
    decomposed = sizes["semilinear.disambiguate"]
    candidates = len(under_disambiguate("kernels.linear_points_in_box"))
    metrics = {
        "periodic_graph.bfs_s": (seconds["periodic_graph.bfs"], "s"),
        "periodic_graph.cover_vertices": (sizes["periodic_graph.bfs"], "count"),
        "automaton.build_nfa_s": (seconds["automaton.build_nfa"], "s"),
        "automaton.transitions": (sizes["automaton.build_nfa"], "count"),
        "automaton.parikh_image_s": (seconds["automaton.parikh_image"], "s"),
        "automaton.image_parts": (sizes["automaton.parikh_image"], "count"),
        "automaton.run_oracle_s": (seconds["automaton.run_oracle"], "s"),
        "semilinear.disambiguate_s": (disambiguate_self, "s"),
        "semilinear.validate_s": (seconds["semilinear.validate"], "s"),
        "semilinear.count_representations_calls": (
            calls["semilinear.count_representations"], "count"),
        "semilinear.decomposed_parts": (decomposed, "count"),
        "semilinear.box_points": (
            sum(span[SIZE] for span in under_disambiguate("semilinear.box")), "count"),
        "semilinear.candidates_per_part": (
            candidates / decomposed if decomposed else 0.0, "count"),
        "semilinear.enumerate_in_box_s": (seconds["semilinear.enumerate_in_box"], "s"),
        "semilinear.doubled_box_points": (sizes["semilinear.enumerate_in_box"], "count"),
        "genfunc.fit_s": (seconds["genfunc.fit"], "s"),
        "genfunc.fit_order": (sizes["genfunc.fit"], "count"),
        "genfunc.gf_sum_s": (seconds["genfunc.gf_sum"], "s"),
        "genfunc.series_s": (seconds["genfunc.series"], "s"),
        "kernels.bfs_layer_counts_s": (seconds["kernels.bfs_layer_counts"], "s"),
        "kernels.accepting_run_profiles_s": (seconds["kernels.accepting_run_profiles"], "s"),
        "kernels.accepting_run_profiles_calls": (
            calls["kernels.accepting_run_profiles"], "count"),
        "kernels.run_profiles": (sizes["kernels.accepting_run_profiles"], "count"),
        "kernels.linear_points_in_box_s": (seconds["kernels.linear_points_in_box"], "s"),
        "kernels.linear_points_in_box_calls": (
            calls["kernels.linear_points_in_box"], "count"),
        "kernels.box_points_returned": (sizes["kernels.linear_points_in_box"], "count"),
        "cli.pipeline_s": (seconds["cli.pipeline"], "s"),
        "cli.symbolic_s": (seconds["cli.symbolic"], "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
    }
    return metrics
