"""Spans around the program's layers, recorded from outside the program.

While installed, the tracer replaces each traced function at the name its
caller looks up (``optimizer`` imports ``minimal_noncommuting_subset`` and
``signal_ensemble`` by name, so those are replaced in the ``optimizer``
namespace) and puts the originals back on exit. Spans stay in memory as
tuples until the run ends. All spans of one set share the set's id.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name); a span's name is where its caller finds it.
SPANNED = (
    ("documents", "load_document", "documents.load_document"),
    ("documents", "parse_observable_set", "documents.parse_observable_set"),
    ("documents", "incompatibility_report_to_dict", "documents.incompatibility_report_to_dict"),
    ("cli", "incompatibility", "optimizer.incompatibility"),
    ("optimizer", "minimal_noncommuting_subset", "observables.minimal_noncommuting_subset"),
    ("optimizer", "signal_ensemble", "observables.signal_ensemble"),
    ("optimizer", "optimal_fidelity", "optimizer.optimal_fidelity"),
    ("optimizer", "see_saw", "optimizer.see_saw"),
    ("linalg", "batched_top_eig", "linalg.batched_top_eig"),
)

# Layer self times: every span's self time lands in exactly one of these.
SELF_LAYERS = {
    "cli.main": "cli.self_ms",
    "documents.load_document": "documents.parse_ms",
    "documents.parse_observable_set": "documents.parse_ms",
    "documents.incompatibility_report_to_dict": "documents.serialize_ms",
    "optimizer.incompatibility": "optimizer.certify_ms",
    "observables.minimal_noncommuting_subset": "observables.reduce_ms",
    "observables.signal_ensemble": "observables.ensemble_ms",
    "optimizer.optimal_fidelity": "optimizer.search_self_ms",
    "optimizer.see_saw": "optimizer.seesaw_self_ms",
    "linalg.batched_top_eig": "linalg.top_eig_ms",
}


class Tracer:
    """Span recorder for one run; ``install`` wraps the program's modules."""

    def __init__(self, package, max_iters: int):
        self.package = package
        self.max_iters = max_iters
        self.spans: list[tuple] = []  # (set id, span id, parent id, name, start, end)
        self.stack: list[int] = []
        self.set_id = -1
        self.commutes_calls = 0
        self.capped_starts = 0
        self._saved: list[tuple] = []

    def span(self, name: str, func):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (self.set_id, span_id, parent, name, start, end)

        return wrapped

    def _see_saw(self, func):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            if result.iterations >= self.max_iters:
                self.capped_starts += 1
            return result

        return self.span("optimizer.see_saw", counted)

    def _commutes(self, func):
        def counted(*args, **kwargs):
            self.commutes_calls += 1
            return func(*args, **kwargs)

        return counted

    def _replace(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def __enter__(self):
        for module_name, attr, name in SPANNED:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            wrapped = self._see_saw(original) if attr == "see_saw" else self.span(name, original)
            self._replace(module, attr, wrapped)
        self._replace(self.package.observables, "commutes", self._commutes(self.package.observables.commutes))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def layer_totals(self) -> dict:
        """Seconds of self time per layer metric, and totals per span name."""
        child_time = defaultdict(float)
        for set_id, span_id, parent, name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        for set_id, span_id, parent, name, start, end in self.spans:
            self_s[SELF_LAYERS[name]] += end - start - child_time[span_id]
            total_s[name] += end - start
            calls[name] += 1
        return {"self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls)}

    def write(self, path: str) -> None:
        """Write every span as one JSON line, times in seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for set_id, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"set": set_id, "id": span_id, "parent": parent, "name": name,
                         "start": start - origin, "end": end - origin}
                    )
                    + "\n"
                )
