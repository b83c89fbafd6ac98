"""Command-line front door wiring the modules into reproducible pipelines.

Exit codes, stable for scripting: 0 success, 1 verification failure,
2 capacity (training that needs more than physical memory, and a table or
array that cannot be allocated, included), 3 input format or a file that
cannot be read or written, 4 invalid parameter, 5 mismatched components,
such as part counts that disagree or a policy trained on other likelihoods.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import oracle, synth
from .errors import (CapacityError, ConfigurationError, FormatError, InvalidParameterError,
                     PartschedError)
from .inference import DetectorModel, load_responses, run_grid, save_results_csv
from .likelihoods import (DEFAULT_BINS, _likelihoods_sha256, _read_json, fit_part_likelihood,
                          load_likelihoods, read_sample_sets, save_likelihoods)
from .policy import (
    _PART_BASE,
    DEFAULT_BELIEF_BINS,
    BeliefGrid,
    CostParams,
    _popcount,
    action_name,
    load_policy,
    save_policy,
    train_policy,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

VERIFY_TOLERANCE = 1e-6


def _dump_json(payload, out_path=None) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_fit(args) -> int:
    if args.bins < 2:
        raise InvalidParameterError(f"--bins must be >= 2, got {args.bins}")
    if args.bandwidth is not None and not 0 < args.bandwidth < float("inf"):
        raise InvalidParameterError(f"--bandwidth must be positive and finite, "
                                    f"got {args.bandwidth}")
    sample_sets = read_sample_sets(args.samples)
    if not sample_sets:
        raise FormatError(f"{args.samples}: no samples found")
    likelihoods = [fit_part_likelihood(s, bandwidth=args.bandwidth, n_bins=args.bins)
                   for s in sample_sets]
    save_likelihoods(likelihoods, args.out)
    for s, lik in zip(sample_sets, likelihoods):
        print(f"part {lik.part_id}: pos={s.positives.size} neg={s.negatives.size} "
              f"support=[{lik.pos.lo:.4g}, {lik.pos.hi:.4g}] bins={lik.pos.n_bins}")
    print(f"wrote {len(likelihoods)} part likelihoods to {args.out}")
    return EXIT_OK


def cmd_train_policy(args) -> int:
    likelihoods = load_likelihoods(args.likelihoods)
    costs = CostParams(args.lambda_fp, args.lambda_fn)
    grid = BeliefGrid(args.belief_bins)
    policy = train_policy(likelihoods, costs, grid)
    save_policy(policy, args.out)
    print(f"states={policy.n_states} belief_bins={policy.grid.d} "
          f"table_entries={policy.n_states * policy.grid.d}")
    print(f"V(empty, {policy.grid.centers[policy.start]:.4g})={float(policy.values[policy.start])!r} "
          f"initial_action={action_name(int(policy.actions[0, policy.start]))}")
    print(f"wrote policy to {args.out}")
    return EXIT_OK


def _load_trained_pair(args):
    """The policy and likelihood files, or ConfigurationError unless the policy was trained on
    those likelihoods."""
    policy = load_policy(args.policy)
    likelihoods = load_likelihoods(args.likelihoods)
    if _likelihoods_sha256(likelihoods) != policy.likelihoods_sha256:
        raise ConfigurationError(f"{args.policy} was trained on other likelihoods than "
                                 f"{args.likelihoods} (a {policy.n_parts}-part policy, "
                                 f"{len(likelihoods)} likelihoods)")
    return policy, likelihoods


def cmd_infer(args) -> int:
    policy, likelihoods = _load_trained_pair(args)
    provider = load_responses(args.responses)
    model = DetectorModel(bias=args.bias, likelihoods=tuple(likelihoods), costs=policy.costs)
    results, stats = run_grid(model, policy, provider)
    save_results_csv(results, args.out)
    rnpe = synth.compute_rnpe(stats, model.n_parts, stats.n_locations) if stats.n_locations else 0.0
    print(f"locations={stats.n_locations} non_root_evals={stats.non_root_evals} "
          f"rnpe={rnpe!r} positives={stats.n_positive} mean_tau={stats.mean_tau!r}")
    print(f"wrote results to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    policy, likelihoods = _load_trained_pair(args)
    estimate = oracle.simulate_policy(policy, likelihoods, args.trials, args.seed)
    _dump_json({
        "mean_cost": estimate.mean_cost,
        "std_error": estimate.std_error,
        "mean_tau": estimate.mean_tau,
        "fp_rate": estimate.fp_rate,
        "fn_rate": estimate.fn_rate,
        "trials": estimate.n_trials,
        "dp_value": float(policy.values[policy.start]),
    }, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seeds < 1:
        raise InvalidParameterError(f"--seeds must be >= 1, got {args.seeds}")
    reports = []
    worst = 0.0
    failing_seed = None
    for seed in range(args.seeds):
        inst = oracle.random_tiny_instance(seed)
        policy = train_policy(inst.likelihoods, inst.costs, inst.grid)
        dp_row = policy.values
        oracle_row = oracle.exhaustive_value_row(inst)
        diff = float(np.max(np.abs(dp_row - oracle_row)))
        estimate = oracle.simulate_policy(policy, inst.likelihoods, args.trials, seed)
        reports.append({
            "seed": seed,
            "optimal_value": float(oracle_row[policy.start]),
            "dp_value": float(dp_row[policy.start]),
            "abs_diff": diff,
            "trials": estimate.n_trials,
            "mean_cost": estimate.mean_cost,
            "std_error": estimate.std_error,
        })
        if diff > worst:
            worst = diff
            if diff > VERIFY_TOLERANCE and failing_seed is None:
                failing_seed = seed
    passed = worst <= VERIFY_TOLERANCE
    _dump_json({"seeds": reports, "max_abs_diff": worst,
                "tolerance": VERIFY_TOLERANCE, "passed": passed}, args.out)
    if not passed:
        print(f"verification FAILED at seed {failing_seed}: "
              f"max |dp - exhaustive| = {worst!r} > {VERIFY_TOLERANCE!r}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"verified {args.seeds} instances: max |dp - exhaustive| = {worst!r}")
    return EXIT_OK


def _parse_lambda_grid(text: str) -> list[tuple[float, float]]:
    try:
        return [(float(fp), float(fn)) for fp, fn in
                (token.split(",") for token in text.split(";") if token.strip())]
    except ValueError as exc:
        raise InvalidParameterError(f"bad lambda grid {text!r}; "
                                    "expected 'fp,fn;fp,fn;...'") from exc


def _load_spec(path) -> synth.SyntheticSpec:
    payload = _read_json(path, "spec")
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: spec must be a JSON object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(synth.SyntheticSpec)}
    if unknown:
        raise FormatError(f"{path}: unknown spec fields {sorted(unknown)}")
    try:
        return synth.SyntheticSpec(**payload)
    except TypeError as exc:
        raise FormatError(f"{path}: incomplete spec: {exc}") from exc


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    points = _parse_lambda_grid(args.grid)
    grid = BeliefGrid(args.belief_bins)
    result = synth.lambda_sweep(spec, points, grid)
    synth.save_sweep_csv(result, args.out)
    meta = {
        "spec": dataclasses.asdict(spec),
        "grid": [[fp, fn] for fp, fn in points],
        "belief_bins": grid.d,
    }
    _dump_json(meta, str(args.out) + ".meta.json")
    diag = result.diagonal_diagnostics()
    if len(diag["lambdas"]) > 1:
        print(f"diagonal: error_nonincreasing={diag['error_nonincreasing']} "
              f"rnpe_nonincreasing={diag['rnpe_nonincreasing']}")
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    policy = load_policy(args.policy)
    start, p = policy.start, f"{policy.grid.centers[policy.start]:.4g}"
    print(f"n_parts={policy.n_parts} belief_bins={policy.grid.d} "
          f"lambda_fp={policy.costs.lambda_fp!r} lambda_fn={policy.costs.lambda_fn!r}")
    print(f"V(empty, {p})={float(policy.values[start])!r}")
    print(f"initial action at p={p}: {action_name(int(policy.actions[0, start]))}")
    if policy.n_states <= 64:
        for mask in range(policy.n_states):
            row = policy.actions[mask]
            summary = Counter(action_name(int(a)) for a in row)
            bits = format(mask, f"0{policy.n_parts}b")
            at_start = action_name(int(row[start]))
            print(f"mask {bits}: at p={p} -> {at_start}; "
                  + " ".join(f"{k}={v}" for k, v in sorted(summary.items())))
    else:
        popcount = _popcount(policy.n_parts)
        for used in range(policy.n_parts + 1):
            masks = np.flatnonzero(popcount == used)
            rows = policy.actions[masks]
            n_label = int((rows < _PART_BASE).sum())
            n_part = int(rows.size - n_label)
            print(f"stage used={used}: masks={len(masks)} label_entries={n_label} "
                  f"part_entries={n_part}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as invalid parameters (exit 4); argparse would exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="partsched",
        description="Learn score likelihoods, train part-selection policies, and run "
                    "sequential inference for additive-score part-based classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit per-part likelihoods from a samples CSV")
    p.add_argument("--samples", required=True, help="CSV with header part_id,label,score")
    p.add_argument("--out", required=True, help="output likelihoods JSON")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS, help="histogram bins per pdf")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="fixed KDE bandwidth (default: rule of thumb)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train-policy", help="train the order-and-stop policy tables")
    p.add_argument("--likelihoods", required=True)
    p.add_argument("--lambda-fp", type=float, required=True, help="false-positive cost")
    p.add_argument("--lambda-fn", type=float, required=True, help="false-negative cost")
    p.add_argument("--belief-bins", type=int, default=DEFAULT_BELIEF_BINS)
    p.add_argument("--out", required=True, help="output policy file")
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("infer", help="run sequential inference over a responses file")
    p.add_argument("--policy", required=True)
    p.add_argument("--likelihoods", required=True)
    p.add_argument("--responses", required=True,
                   help=".csv (location_id,part_id,score) or binary matrix file")
    p.add_argument("--bias", type=float, default=0.0, help="additive score bias")
    p.add_argument("--out", required=True, help="output results CSV")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("simulate", help="Monte Carlo cost estimate of a trained policy")
    p.add_argument("--policy", required=True)
    p.add_argument("--likelihoods", required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="certify the trained tables against exhaustive enumeration")
    p.add_argument("--seeds", type=int, default=20, help="number of seeded tiny instances")
    p.add_argument("--trials", type=int, default=20000, help="Monte Carlo trials per instance")
    p.add_argument("--out", default=None, help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="train and evaluate a grid of cost points on a synthetic spec")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--grid", required=True, help="semicolon-separated fp,fn pairs, e.g. '4,4;8,4'")
    p.add_argument("--belief-bins", type=int, default=DEFAULT_BELIEF_BINS)
    p.add_argument("--out", required=True, help="output sweep CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="human-readable dump of a policy file")
    p.add_argument("--policy", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PartschedError, OSError) as exc:  # an unreadable or unwritable file is a format error
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, PartschedError) else FormatError.exit_code
    except MemoryError as exc:  # a table or array too large to allocate is over capacity
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return CapacityError.exit_code


if __name__ == "__main__":
    sys.exit(main())
