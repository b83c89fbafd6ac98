"""The partsched benchmark workloads: `scan`, `scan-deep` and `pipeline`.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned.  An operation is one image (one
`run_grid` call over 10^4 locations) on the scans, and one
`fit -> train-policy -> simulate -> infer` chain through `partsched.cli.main`
on `pipeline`.  Correctness checks run after each operation, outside its
timed window, and a failed check counts the operation as failed.

The detector (the likelihood training draw) is fixed per workload by
DETECTOR_SEED; the run seed draws the images or responses it is applied to.
A detector drawn from the run seed moved `rnpe` by about 7% and the scan
error count by about 25% between seeds, because the trained policy changes
with the fitted likelihoods; that spread would swamp any bound.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from partsched import cli, inference, likelihoods, oracle, synth
from partsched import policy as policy_mod
from partsched.inference import POS_LABEL, InferenceStats, MatrixResponseProvider
from partsched.policy import LABEL_NEG, LABEL_POS, BeliefGrid, CostParams, part_action

from spans import LAYERS, CountingProvider, Tracer

DETECTOR_SEED = 1404
SCORE_TOL = 1e-12  # positive score vs. exhaustive score, as acceptance criterion C4 allows
SIMULATE_SE = 4.0  # simulate's mean_cost must lie within this many standard errors of dp_value
REPLAYS_PER_IMAGE = 16  # seeded locations per image replayed through oracle.step_trace
MAX_TAU = 12       # tau histogram bins reported, 0..MAX_TAU, the largest part count used
CLI_COMMANDS = ("fit", "train_policy", "simulate", "infer")


@dataclass(frozen=True)
class ScanConfig:
    n_parts: int = 9
    separation: float = 4.0
    prior: float = 0.01
    lambda_fp: float = 20.0
    lambda_fn: float = 5.0
    belief_bins: int = 101
    image_locations: int = 10_000
    pool_images: int = 40      # distinct images; operations cycle over them
    setup_repeats: int = 5


@dataclass(frozen=True)
class PipelineConfig:
    n_parts: int = 12
    separation: float = 2.0
    prior: float = 0.3
    lambda_fp: float = 20.0
    lambda_fn: float = 5.0
    belief_bins: int = 101
    samples_per_class: int = 2000
    locations: int = 20_000
    trials: int = 100_000
    setup_repeats: int = 5


WORKLOADS = {
    # The paper's headline point: mean tau ~1.05, few completions.
    "scan": ScanConfig(),
    # Low separation, high costs: mean tau ~4, ~38% of locations completed.
    "scan-deep": ScanConfig(separation=1.0, prior=0.3, lambda_fp=200.0, lambda_fn=200.0,
                            pool_images=12),
    # Training dominates; also KDE fit, file I/O and the Monte Carlo simulator.
    "pipeline": PipelineConfig(),
}

Outcome = namedtuple("Outcome", "location_id label score")


class Tally:
    """Evaluation counts and quality inputs over a fixed set of locations."""

    def __init__(self, n_parts: int):
        self.n_parts = n_parts
        self.locations = self.evals = self.stop_evals = self.non_root = 0
        self.positives = self.completions = self.useful_completions = self.completion_evals = 0
        self.tau_hist = [0] * (MAX_TAU + 1)
        self.outcomes: list[Outcome] = []
        self.truth: list[np.ndarray] = []

    def add(self, results, truth) -> None:
        """Add one ordered result list (location ids 0..N-1) and its truth labels."""
        truth = np.asarray(truth, dtype=bool)
        base = len(self.outcomes)
        for r in results:
            n_eval = len(r.parts_evaluated)
            self.evals += n_eval
            self.stop_evals += r.tau
            self.non_root += sum(1 for k in r.parts_evaluated if k > 0)
            self.tau_hist[r.tau] += 1
            if r.label == POS_LABEL:
                self.positives += 1
                if n_eval > r.tau:
                    self.completions += 1
                    self.completion_evals += n_eval - r.tau
                    self.useful_completions += bool(truth[r.location_id])
            self.outcomes.append(Outcome(base + r.location_id, r.label, r.score))
        self.locations += len(results)
        self.truth.append(truth)

    def quality(self) -> dict[str, float]:
        truth = np.concatenate(self.truth)
        stats = InferenceStats(n_locations=self.locations, non_root_evals=self.non_root,
                               n_positive=self.positives,
                               mean_tau=self.stop_evals / self.locations)
        return {
            "rnpe": synth.compute_rnpe(stats, self.n_parts, self.locations),
            "ap": synth.precision_recall(self.outcomes, truth).average_precision,
            "error_rate": synth.classification_counts(self.outcomes, truth).error_rate,
        }

    def counts(self) -> dict[str, float]:
        out = {
            "inference.evals_per_location": self.evals / max(self.locations, 1),
            "inference.stop_evals": self.stop_evals,
            "inference.completion_evals": self.completion_evals,
            "inference.completion_useful_ratio": (self.useful_completions / self.completions
                                                  if self.completions else 0.0),
        }
        out.update({f"inference.tau_hist.{k}": c for k, c in enumerate(self.tau_hist)})
        return out


def _check_op(tracer: Tracer | None) -> None:
    """Tag spans opened by an operation's checks apart from its timed work."""
    if tracer:
        tracer.op = f"{tracer.op}/check"


class ScanBench:
    """One fixed detector applied to a pool of seeded images of 10^4 locations each."""

    def __init__(self, config: ScanConfig, seed: int, work_dir: Path):
        self.config = config
        self.seed = seed
        self.tally = Tally(config.n_parts)  # first pass over each image
        self.pooled: set[int] = set()
        self.pool_calls = 0                # provider calls of the traced pass over the pool
        self.provider_s: list[float] = []  # per traced operation

    @property
    def min_ops(self) -> int:
        return self.config.pool_images

    def setup(self) -> None:
        # Drop the previous repeat's arrays first, so that the peak resident set
        # is one set-up's, not two.
        self.scores = self.model = self.policy = self.truth = None
        c = self.config
        costs = CostParams(c.lambda_fp, c.lambda_fn)
        detector = synth.SyntheticSpec(n_parts=c.n_parts, separation=c.separation,
                                       prior_positive=c.prior, n_locations=1,
                                       seed=DETECTOR_SEED)
        images = dataclasses.replace(detector, n_locations=c.pool_images * c.image_locations,
                                     seed=self.seed)
        self.model, _, _ = synth.make_synthetic(detector, costs)
        _, provider, self.truth = synth.make_synthetic(images, costs)
        self.scores = provider.scores
        self.policy = policy_mod.train_policy(self.model.likelihoods, costs,
                                              BeliefGrid(c.belief_bins))

    def _rows(self, image: int) -> slice:
        n = self.config.image_locations
        return slice(image * n, (image + 1) * n)

    def provider_for(self, image: int, tracer: Tracer | None) -> MatrixResponseProvider:
        rows = self.scores[self._rows(image)]
        return CountingProvider(rows, tracer) if tracer else MatrixResponseProvider(rows)

    def operation(self, i: int, tracer: Tracer | None):
        """Label image i mod pool size; returns (seconds, locations, problems)."""
        image = i % self.config.pool_images
        provider = self.provider_for(image, tracer)
        t0 = time.perf_counter()
        results, _ = inference.run_grid(self.model, self.policy, provider)
        seconds = time.perf_counter() - t0
        _check_op(tracer)
        problems = self.check(i, image, results)
        if isinstance(provider, CountingProvider):
            provider.settle()
            problems += provider.ledger_problems(results)
            self.provider_s.append(provider.seconds)
            if 0 <= i < self.config.pool_images:
                self.pool_calls += provider.calls
        if image not in self.pooled and not problems:
            self.pooled.add(image)
            self.tally.add(results, self.truth[self._rows(image)])
        return seconds, len(results), problems

    def check(self, i: int, image: int, results) -> list[str]:
        c = self.config
        rows = self.scores[self._rows(image)]
        plain = MatrixResponseProvider(rows)
        problems = []
        if [r.location_id for r in results] != list(range(rows.shape[0])):
            return ["results do not cover the image's locations in order"]
        for r in results:
            parts = r.parts_evaluated
            if len(set(parts)) != len(parts) or not r.tau <= min(len(parts), c.n_parts):
                problems.append(f"location {r.location_id}: parts {parts}, tau {r.tau}")
            partial = 0.0
            for k in parts[:r.tau]:
                partial += float(rows[r.location_id, k])
            if not abs(partial - r.partial_score) <= SCORE_TOL:
                problems.append(f"location {r.location_id}: partial score {r.partial_score!r} "
                                f"is not the sum of its responses {partial!r}")
            if r.label == POS_LABEL:
                exhaustive = inference.full_score(self.model, plain, r.location_id)
                if len(parts) != c.n_parts or not abs(r.score - exhaustive) <= SCORE_TOL:
                    problems.append(f"location {r.location_id}: positive score {r.score!r} "
                                    f"vs exhaustive {exhaustive!r}")
            elif r.score != -math.inf:
                problems.append(f"location {r.location_id}: background score {r.score!r}")
        rng = np.random.default_rng([self.seed, i + 1])
        for loc in rng.choice(len(results), size=min(REPLAYS_PER_IMAGE, len(results)),
                              replace=False):
            r = results[loc]
            used = r.parts_evaluated[:r.tau]
            script = [float(rows[loc, k]) for k in used]
            replay = [a for a, _ in oracle.step_trace(self.policy, self.model.likelihoods, script)]
            expected = [part_action(k) for k in used] + [LABEL_POS if r.label == POS_LABEL
                                                         else LABEL_NEG]
            if replay != expected:
                problems.append(f"location {loc}: step_trace replays {replay}, engine ran {expected}")
        return problems

class PipelineBench:
    """The CLI chain over a fixed samples file and seeded binary responses."""

    min_ops = 1

    def __init__(self, config: PipelineConfig, seed: int, work_dir: Path):
        self.config = config
        self.seed = seed
        self.work = work_dir
        self.samples = work_dir / "samples.csv"
        self.responses = work_dir / "responses.bin"
        self.reference: dict[str, str] | None = None  # output digests of the first chain
        self.tally = Tally(config.n_parts)  # outputs of the first chain
        self.pool_calls = 0
        self.provider_s: list[float] = []

    def setup(self) -> None:
        c = self.config
        spec = synth.SyntheticSpec(n_parts=c.n_parts, separation=c.separation,
                                   prior_positive=c.prior, n_locations=c.locations,
                                   seed=self.seed)
        _, provider, self.truth = synth.make_synthetic(spec)
        means = 0.5 * c.separation * spec.multipliers
        rng = np.random.default_rng(DETECTOR_SEED)
        sets = [likelihoods.ScoreSampleSet(k, rng.standard_normal(c.samples_per_class) + means[k],
                                           rng.standard_normal(c.samples_per_class) - means[k])
                for k in range(c.n_parts)]
        likelihoods.save_sample_sets(sets, self.samples)
        inference.save_responses_bin(provider.scores, self.responses)

    def operation(self, i: int, tracer: Tracer | None):
        c = self.config
        chain = Path(tempfile.mkdtemp(prefix="chain-", dir=self.work))
        files = {name: chain / name
                 for name in ("likelihoods.json", "policy.bin", "simulate.json", "results.csv")}
        liks, pol = str(files["likelihoods.json"]), str(files["policy.bin"])
        commands = (
            ("fit", ["fit", "--samples", str(self.samples), "--out", liks]),
            ("train_policy", ["train-policy", "--likelihoods", liks,
                              "--lambda-fp", repr(c.lambda_fp), "--lambda-fn", repr(c.lambda_fn),
                              "--belief-bins", str(c.belief_bins), "--out", pol]),
            ("simulate", ["simulate", "--policy", pol, "--likelihoods", liks,
                          "--trials", str(c.trials), "--seed", str(self.seed),
                          "--out", str(files["simulate.json"])]),
            ("infer", ["infer", "--policy", pol, "--likelihoods", liks,
                       "--responses", str(self.responses), "--out", str(files["results.csv"])]),
        )
        try:
            codes = {}
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                for name, argv in commands:
                    with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
                        codes[name] = cli.main(argv)
                    if codes[name] != 0:
                        break
            seconds = time.perf_counter() - t0
            _check_op(tracer)
            problems = [f"{name} exited {code}" for name, code in codes.items() if code != 0]
            if not problems:
                problems = self.check(files, tracer)
        finally:
            shutil.rmtree(chain)
        return seconds, c.locations, problems

    def check(self, files: dict[str, Path], tracer: Tracer | None) -> list[str]:
        problems = []
        report = json.loads(files["simulate.json"].read_text())
        gap = abs(report["mean_cost"] - report["dp_value"])
        if not gap <= SIMULATE_SE * report["std_error"]:
            problems.append(f"simulate mean_cost {report['mean_cost']!r} is {gap!r} from "
                            f"dp_value {report['dp_value']!r}, se {report['std_error']!r}")
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in files.items()}
        results = None
        if self.reference is None:
            self.reference = digests
            results = inference.load_results_csv(files["results.csv"])
            self.tally.add(results, self.truth)
        elif digests != self.reference:
            changed = sorted(n for n in digests if digests[n] != self.reference[n])
            problems.append(f"outputs differ from the first chain: {changed}")
        provider = tracer.last_provider if tracer else None
        if provider is not None:
            provider.settle()
            if results is None:
                results = inference.load_results_csv(files["results.csv"])
            problems += provider.ledger_problems(results)
            self.pool_calls = provider.calls
            self.provider_s.append(provider.seconds)
            tracer.last_provider = None
        return problems


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with 10 samples beyond it.

    That is the 11th-largest sample.  Below 21 samples it would fall under
    the median, so the maximum (percentile 100) is reported instead.
    """
    xs = sorted(values)
    if len(xs) >= 21:
        rank = len(xs) - 11
        return xs[rank], 100.0 * rank / (len(xs) - 1)
    return xs[-1], 100.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class _Phase:
    """Timed operations of one closed-loop measurement."""

    times: list[float] = dataclasses.field(default_factory=list)
    locations: int = 0
    attempted: int = 0
    failed: int = 0
    ops: set[str] = dataclasses.field(default_factory=set)  # span op ids, when traced


def _measure(bench, seconds: float, tracer: Tracer | None) -> _Phase:
    """One operation at a time until `seconds` have passed and min_ops have run."""
    phase = _Phase()
    start = time.perf_counter()
    i = 0
    while i < bench.min_ops or time.perf_counter() - start < seconds:
        if tracer:
            tracer.op = f"op-{i}"
            phase.ops.add(tracer.op)
        outcome = _attempt(bench, i, tracer)
        phase.attempted += 1
        if outcome is None:
            phase.failed += 1
        else:
            phase.times.append(outcome[0])
            phase.locations += outcome[1]
        i += 1
    return phase


def _attempt(bench, i: int, tracer: Tracer | None):
    """Run one operation; None if it raised or a check failed."""
    try:
        seconds, locations, problems = bench.operation(i, tracer)
    except Exception:  # one failed operation must not end the run
        print(f"operation {i} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None
    if problems:
        print(f"operation {i} failed {len(problems)} checks, first: {problems[:3]}",
              file=sys.stderr)
        return None
    return seconds, locations


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        config=None, bench_factory=None) -> dict:
    """Run one workload; returns end-to-end metrics, per-layer metrics (traced) and details."""
    config = config or WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    make = bench_factory or (ScanBench if isinstance(config, ScanConfig) else PipelineBench)
    bench = make(config, seed, work)
    tracer = Tracer() if trace else None

    def traced():
        return tracer.patched() if tracer else contextlib.nullcontext()

    try:
        with traced():
            setup_s = []
            for r in range(config.setup_repeats):
                if tracer:
                    tracer.op = f"setup-{r}"
                t0 = time.perf_counter()
                bench.setup()
                setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.op = "warmup"
            warmup = _attempt(bench, -1, tracer)
        # With tracing, half the time runs untraced for the overhead comparison.
        plain = _measure(bench, seconds / 2 if tracer else seconds, None)
        phases = [plain]
        if tracer:
            with traced():
                phases.append(_measure(bench, seconds / 2, tracer))
        with traced():
            if tracer:
                tracer.op = "quality"
            # a run whose every operation failed still reports, with correct=false
            quality = (bench.tally.quality() if bench.tally.locations
                       else dict.fromkeys(("rnpe", "ap", "error_rate"), 0.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = 1 + sum(p.attempted for p in phases)
    failed = (warmup is None) + sum(p.failed for p in phases)
    tail_value, tail_pct = tail(plain.times) if plain.times else (0.0, 0.0)
    end_to_end = {
        "setup_s": (_median(setup_s), "s"),
        "locations_per_s": (plain.locations / sum(plain.times) if plain.times else 0.0, "1/s"),
        "op_ms_p50": (_median(plain.times) * 1e3, "ms"),
        "op_ms_tail": (tail_value * 1e3, "ms"),
        "rnpe": (quality["rnpe"], "ratio"),
        "ap": (quality["ap"], "ratio"),
        "error_rate": (quality["error_rate"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "operations_timed": len(plain.times),
        "op_tail_percentile": tail_pct,
        "failed_share": failed / attempted,
        "setup_s_samples": setup_s,
        "op_ms_samples": [t * 1e3 for t in plain.times],
    }
    report = {"attempted": attempted, "failed": failed, "end_to_end": end_to_end,
              "details": details, "per_layer": None}
    if tracer:
        report["per_layer"] = _per_layer(tracer, bench, config, phases[1], plain)
        details["layer_self_s_total"] = tracer.layer_self_time()
        report["spans"] = tracer
    return report


def _per_layer(tracer: Tracer, bench, config, traced: _Phase, plain: _Phase) -> dict:
    def med(name):
        return _median(tracer.durations(name))

    train_s = med("policy.train_policy")
    entries, table_bytes = tracer.trained_table
    simulate_s = med("oracle.simulate_policy")
    m = {
        "likelihoods.fit_s_per_part": med("likelihoods.fit_part_likelihood"),
        "likelihoods.read_samples_s": med("likelihoods.read_sample_sets"),
        "likelihoods.save_s": med("likelihoods.save_likelihoods"),
        "likelihoods.load_s": med("likelihoods.load_likelihoods"),
        "policy.train_s": train_s,
        "policy.entries_per_s": entries / train_s if train_s else 0.0,
        "policy.table_bytes": table_bytes,
        "policy.save_s": med("policy.save_policy"),
        "policy.load_s": med("policy.load_policy"),
        "inference.run_grid_s": med("inference.run_grid"),
        "inference.provider_s": _median(bench.provider_s),
        "inference.provider_calls": bench.pool_calls,
        "inference.responses_load_s": med("inference.load_responses"),
        "inference.results_save_s": med("inference.save_results_csv"),
        "oracle.simulate_s": simulate_s,
        "oracle.trials_per_s": config.trials / simulate_s if simulate_s else 0.0,
        "oracle.step_trace_s": med("oracle.step_trace"),
        "synth.make_s": med("synth.make_synthetic"),
        "synth.pr_s": med("synth.precision_recall"),
        "synth.counts_s": med("synth.classification_counts"),
    }
    m.update(bench.tally.counts())
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = med(f"cli.{cmd}")
        m[f"cli.{cmd}.overhead_s"] = _median(tracer.self_times(f"cli.{cmd}"))
    per_op = tracer.layer_self_time(traced.ops)
    n_ops = max(len(traced.ops), 1)
    for layer in LAYERS:
        m[f"self_s_per_op.{layer}"] = per_op[layer] / n_ops
    untraced_p50, traced_p50 = _median(plain.times), _median(traced.times)
    m["trace.overhead_ms_per_op"] = (traced_p50 - untraced_p50) * 1e3
    m["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0
    m["trace.spans"] = len(tracer.spans)
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s_per_" in name:
        return "s"
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_per_location"):
        return "evals/location"
    return "count"
