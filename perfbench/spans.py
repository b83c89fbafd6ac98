"""Span tracing of partsched's public functions, recorded from outside the package.

The tracer wraps the functions listed in TRACED in every loaded partsched
module that binds them (so calls made through `partsched.cli`'s imported
names are seen too), and restores the originals on exit.  Spans stay in
memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass

from partsched.inference import MatrixResponseProvider

TRACED = {
    "likelihoods": ("read_sample_sets", "fit_part_likelihood", "save_likelihoods",
                    "load_likelihoods"),
    "policy": ("train_policy", "save_policy", "load_policy"),
    "inference": ("run_grid", "load_responses", "save_results_csv", "load_results_csv"),
    "oracle": ("simulate_policy", "step_trace"),
    "synth": ("make_synthetic", "precision_recall", "classification_counts", "compute_rnpe"),
}
# `cli` spans are opened by the benchmark around each `partsched.cli.main` call;
# `provider` is the response fetch time measured inside CountingProvider.
LAYERS = tuple(TRACED) + ("cli", "provider")


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    op: str      # operation id shared by every span of one operation
    start: float
    end: float = math.nan
    covered: float = 0.0  # time inside this span spent in child spans or provider fetches

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    """In-memory span recorder; `op` tags every span opened until it changes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = "setup"
        self.provider_s: dict[str, float] = {}  # fetch seconds per op
        self.last_provider: CountingProvider | None = None
        self.trained_table = (0, 0)  # entries and bytes of the last trained policy's tables
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.op, self.clock())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].covered += span.duration

    def open_span(self) -> int:
        return self._stack[-1] if self._stack else -1

    def cover(self, span: int, seconds: float) -> None:
        """Move `seconds` of fetch time out of span `span` into the provider layer."""
        op = self.op
        if span >= 0:
            self.spans[span].covered += seconds
            op = self.spans[span].op
        self.provider_s[op] = self.provider_s.get(op, 0.0) + seconds

    def _wrap(self, name, fn, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            return post(out) if post else out
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every TRACED function wherever partsched binds it; restore on exit.

        Loaded response files are served through a CountingProvider, so the
        engine's fetches are counted on the CLI path as well.
        """
        post = {"load_responses": lambda p: CountingProvider(p.scores, self),
                "train_policy": self._record_table}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "partsched" or key.startswith("partsched.")]
        saved = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"partsched.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original, post.get(name))
                for module in modules:
                    if getattr(module, name, None) is original:
                        saved.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def _record_table(self, policy):
        self.trained_table = (policy.actions.size, policy.actions.nbytes + policy.values.nbytes)
        return policy

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        return [s.self_time for s in self.spans if s.name == name]

    def layer_self_time(self, ops=None) -> dict[str, float]:
        """Summed self time per layer over spans whose op is in `ops` (all if None)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if ops is None or s.op in ops:
                out[s.layer] += s.self_time
        out["provider"] = sum(v for op, v in self.provider_s.items() if ops is None or op in ops)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent, "op": s.op,
                                     "start": s.start, "end": s.end,
                                     "self": s.self_time}) + "\n")


class CountingProvider(MatrixResponseProvider):
    """Matrix provider that times each fetch and keeps a ledger of (location, part) pairs.

    Fetch time is charged to the span open at the first fetch by `settle`,
    once per pass, to keep the per-fetch cost low.
    """

    def __init__(self, scores, tracer: Tracer):
        super().__init__(scores)
        self.tracer = tracer
        self.seconds = 0.0
        self.fetched: set[tuple[int, int]] = set()
        self.repeats = 0
        self.span = -1
        tracer.last_provider = self

    @property
    def calls(self) -> int:
        return len(self.fetched) + self.repeats

    def get_response(self, location_id: int, part_id: int) -> float:
        t0 = time.perf_counter()
        value = float(self.scores[location_id, part_id])
        self.seconds += time.perf_counter() - t0
        fetched = self.fetched
        before = len(fetched)
        fetched.add((location_id, part_id))
        if len(fetched) == before:
            self.repeats += 1
        if self.span < 0:
            self.span = self.tracer.open_span()
        return value

    def settle(self) -> None:
        """Charge this pass's fetch time to the provider layer and out of its span."""
        self.tracer.cover(self.span, self.seconds)

    def ledger_problems(self, results) -> list[str]:
        """The ledger must hold one fetch per evaluated (location, part) pair."""
        evaluated = sum(len(r.parts_evaluated) for r in results)
        problems = []
        if self.calls != evaluated:
            problems.append(f"provider saw {self.calls} calls for {evaluated} evaluations")
        if self.repeats:
            problems.append(f"{self.repeats} (location, part) pairs fetched more than once")
        return problems
