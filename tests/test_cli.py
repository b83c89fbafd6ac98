import hashlib
import json

import numpy as np
import pytest

from partsched import (
    ScoreSampleSet,
    SyntheticSpec,
    fit_part_likelihood,
    load_likelihoods,
    make_synthetic,
    save_likelihoods,
    save_responses_bin,
    save_sample_sets,
)
from partsched.cli import main


@pytest.fixture()
def pipeline_dir(tmp_path, rng):
    """Samples CSV + responses file generated from a small synthetic detector."""
    spec = SyntheticSpec(n_parts=3, separation=3.0, prior_positive=0.3,
                         n_locations=80, seed=5, train_samples=200)
    model, provider, truth = make_synthetic(spec)
    means = 0.5 * spec.separation * spec.multipliers
    sample_sets = [
        ScoreSampleSet(k,
                       rng.standard_normal(150) + means[k],
                       rng.standard_normal(150) - means[k])
        for k in range(spec.n_parts)
    ]
    samples = tmp_path / "samples.csv"
    save_sample_sets(sample_sets, samples)
    responses = tmp_path / "responses.bin"
    save_responses_bin(provider.scores, responses)
    return tmp_path, samples, responses


def run_pipeline(base, samples, responses, tag):
    liks = base / f"liks_{tag}.json"
    policy = base / f"policy_{tag}.bin"
    results = base / f"results_{tag}.csv"
    assert main(["fit", "--samples", str(samples), "--out", str(liks)]) == 0
    assert main(["train-policy", "--likelihoods", str(liks), "--lambda-fp", "20",
                 "--lambda-fn", "5", "--belief-bins", "51", "--out", str(policy)]) == 0
    assert main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                 "--responses", str(responses), "--out", str(results)]) == 0
    return liks, policy, results


# sha256 digests of the recorded chain's results.csv and stdout.  They were
# recorded with the per-location inference loop that the batched frontier
# replaced; the frontier must reproduce them byte for byte.
RECORDED_RESULTS_SHA256 = "0082229b1bc4985afc83647d14a45c31633bad036b485316ec0cdb1b1c71a477"
RECORDED_STDOUT_SHA256 = "c6743472e0e818684e9f0ba88d3e9341ff5159d89f362a2aebaffe4bb0016972"


class TestPipeline:
    def test_infer_output_matches_recorded_digests(self, tmp_path, monkeypatch, capsys):
        # high error costs: multi-step belief chains, ~600 completed positives,
        # a nonzero bias, and a few out-of-support and infinite responses
        rng = np.random.default_rng(2024)
        sets = [ScoreSampleSet(k, rng.standard_normal(300) + 0.3 * (k + 1),
                               rng.standard_normal(300) - 0.3 * (k + 1)) for k in range(5)]
        monkeypatch.chdir(tmp_path)
        save_sample_sets(sets, "samples.csv")
        truth = rng.random(1500) < 0.4
        means = 0.3 * np.arange(1, 6)
        scores = rng.standard_normal((1500, 5)) + np.where(truth[:, None], means, -means)
        scores[::101, 2] = np.inf
        scores[::103, 4] = -np.inf
        scores[::107, 0] = 40.0
        save_responses_bin(scores, "responses.bin")
        capsys.readouterr()
        assert main(["fit", "--samples", "samples.csv", "--out", "liks.json"]) == 0
        assert main(["train-policy", "--likelihoods", "liks.json", "--lambda-fp", "200",
                     "--lambda-fn", "150", "--out", "policy.bin"]) == 0
        assert main(["infer", "--policy", "policy.bin", "--likelihoods", "liks.json",
                     "--responses", "responses.bin", "--bias", "-0.7",
                     "--out", "results.csv"]) == 0
        stdout = capsys.readouterr().out
        results = (tmp_path / "results.csv").read_bytes()
        assert "mean_tau=1.6193333333333333" in stdout  # a readable hint when a digest moves
        assert hashlib.sha256(results).hexdigest() == RECORDED_RESULTS_SHA256
        assert hashlib.sha256(stdout.encode()).hexdigest() == RECORDED_STDOUT_SHA256

    def test_end_to_end_and_rerun_is_byte_identical(self, pipeline_dir, capsys):
        base, samples, responses = pipeline_dir
        liks1, policy1, results1 = run_pipeline(base, samples, responses, "a")
        liks2, policy2, results2 = run_pipeline(base, samples, responses, "b")
        assert liks1.read_bytes() == liks2.read_bytes()
        assert policy1.read_bytes() == policy2.read_bytes()
        assert results1.read_bytes() == results2.read_bytes()
        out = capsys.readouterr().out
        assert "V(empty, 0.5)" in out
        assert "non_root_evals=" in out

    def test_fit_summary_lists_parts(self, pipeline_dir, capsys):
        base, samples, _ = pipeline_dir
        assert main(["fit", "--samples", str(samples), "--out", str(base / "l.json")]) == 0
        out = capsys.readouterr().out
        assert "part 0:" in out and "part 2:" in out
        assert len(load_likelihoods(base / "l.json")) == 3

    def test_infer_empty_responses(self, pipeline_dir, capsys):
        base, samples, _ = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, base / "responses.bin", "e")
        empty = base / "empty.bin"
        save_responses_bin(np.empty((0, 3)), empty)
        out_csv = base / "empty_results.csv"
        capsys.readouterr()
        assert main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(empty), "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "locations=0 non_root_evals=0 rnpe=0.0 positives=0 mean_tau=0.0" in out
        assert out_csv.read_text() == "location_id,label,score,tau,parts_order\n"

    def test_infer_stats_match_recomputation(self, pipeline_dir, capsys):
        base, samples, responses = pipeline_dir
        _, _, results = run_pipeline(base, samples, responses, "s")
        out = capsys.readouterr().out
        stats_line = next(l for l in out.splitlines() if l.startswith("locations="))
        reported_rnpe = float(stats_line.split("rnpe=")[1].split()[0])
        non_root = int(stats_line.split("non_root_evals=")[1].split()[0])
        assert reported_rnpe == pytest.approx((3 - 1) * 80 / non_root)


class TestExitCodes:
    def test_missing_label_class_exits_3(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("part_id,label,score\n0,pos,1.0\n0,pos,2.0\n0,neg,-1.0\n0,neg,-2.0\n"
                           "1,pos,0.5\n1,pos,0.7\n")
        code = main(["fit", "--samples", str(samples), "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "part 1" in capsys.readouterr().err

    def test_zero_cost_exits_4(self, pipeline_dir):
        base, samples, _ = pipeline_dir
        liks = base / "l.json"
        assert main(["fit", "--samples", str(samples), "--out", str(liks)]) == 0
        code = main(["train-policy", "--likelihoods", str(liks), "--lambda-fp", "0",
                     "--lambda-fn", "5", "--out", str(base / "p.bin")])
        assert code == 4

    def test_capacity_exceeded_exits_2(self, tmp_path, rng):
        liks = [fit_part_likelihood(ScoreSampleSet(
            k, rng.standard_normal(20) + 1.0, rng.standard_normal(20) - 1.0), n_bins=16)
            for k in range(25)]
        path = tmp_path / "liks.json"
        save_likelihoods(liks, path)
        code = main(["train-policy", "--likelihoods", str(path), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--belief-bins", "5", "--out", str(tmp_path / "p.bin")])
        assert code == 2

    def test_arity_mismatch_exits_5(self, pipeline_dir, rng, capsys):
        base, samples, _ = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, base / "responses.bin", "m")
        wide = base / "wide.bin"
        save_responses_bin(rng.standard_normal((4, 7)), wide)
        code = main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(wide), "--out", str(base / "r.csv")])
        assert code == 5
        err = capsys.readouterr().err
        assert "7" in err and "3" in err

    def test_nan_response_exits_3(self, pipeline_dir, rng, capsys):
        base, samples, _ = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, base / "responses.bin", "n")
        scores = rng.standard_normal((6, 3))
        scores[4, 1] = np.nan
        bad = base / "nan.bin"
        save_responses_bin(scores, bad)
        capsys.readouterr()
        code = main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(bad), "--out", str(base / "r.csv")])
        assert code == 3
        assert "location 4, part 1" in capsys.readouterr().err

    @pytest.mark.parametrize("prior", ["nan", "inf", "-inf"])
    def test_non_finite_prior_exits_4(self, pipeline_dir, prior, capsys):
        base, samples, responses = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, responses, "p")
        capsys.readouterr()
        code = main(["simulate", "--policy", str(policy), "--likelihoods", str(liks),
                     f"--prior={prior}", "--trials", "100"])
        assert code == 4
        assert "prior" in capsys.readouterr().err

    def test_malformed_likelihoods_exit_3(self, tmp_path):
        bad = tmp_path / "liks.json"
        bad.write_text("{\"oops\": 1}")
        code = main(["train-policy", "--likelihoods", str(bad), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--out", str(tmp_path / "p.bin")])
        assert code == 3

    def test_missing_file_exits_3(self, tmp_path):
        code = main(["inspect", "--policy", str(tmp_path / "nope.bin")])
        assert code == 3


class TestVerify:
    def test_default_certification_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--seeds", "6", "--trials", "2000", "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["max_abs_diff"] <= 1e-6
        assert len(payload["seeds"]) == 6
        assert {"optimal_value", "dp_value", "abs_diff", "trials",
                "mean_cost", "std_error"} <= set(payload["seeds"][0])

    def test_fault_injection_fails(self, tmp_path, capsys):
        code = main(["verify", "--seeds", "3", "--trials", "500",
                     "--perturb-values", "0.01", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_report_bytes_reproducible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["verify", "--seeds", "2", "--trials", "500", "--out", str(a)]) == 0
        assert main(["verify", "--seeds", "2", "--trials", "500", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepAndInspect:
    def test_sweep_single_point(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_parts": 3, "separation": 3.0, "prior_positive": 0.5,
            "n_locations": 200, "seed": 8, "train_samples": 300,
        }))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spec", str(spec_path), "--grid", "8,4",
                     "--belief-bins", "21", "--threads", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda_fp,lambda_fn,ap,rnpe,mean_tau,fp_rate,fn_rate"
        assert len(lines) == 2
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["spec"]["seed"] == 8
        assert meta["grid"] == [[8.0, 4.0]]

    def test_sweep_malformed_spec_exits_3(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{\"n_parts\": 3, \"bogus\": true}")
        code = main(["sweep", "--spec", str(spec_path), "--grid", "4,4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 3

    def test_sweep_bad_grid_exits_4(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_parts": 2, "separation": 1.0, "prior_positive": 0.5,
            "n_locations": 10, "seed": 1,
        }))
        code = main(["sweep", "--spec", str(spec_path), "--grid", "4:4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4

    def test_inspect_reports_immediate_stop_regime(self, tmp_path, rng, capsys):
        lik = fit_part_likelihood(ScoreSampleSet(
            0, rng.standard_normal(50) + 1.0, rng.standard_normal(50) - 1.0))
        liks_path = tmp_path / "l.json"
        save_likelihoods([lik], liks_path)
        policy_path = tmp_path / "p.bin"
        assert main(["train-policy", "--likelihoods", str(liks_path), "--lambda-fp", "0.0001",
                     "--lambda-fn", "0.0001", "--out", str(policy_path)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--policy", str(policy_path)]) == 0
        out = capsys.readouterr().out
        assert "initial action at p=0.5:" in out
        action = out.split("initial action at p=0.5: ")[1].split()[0]
        assert action in ("neg", "pos")

    def test_inspect_per_mask_summary(self, pipeline_dir, capsys):
        base, samples, responses = pipeline_dir
        _, policy, _ = run_pipeline(base, samples, responses, "i")
        capsys.readouterr()
        assert main(["inspect", "--policy", str(policy)]) == 0
        out = capsys.readouterr().out
        assert "mask 000:" in out
        assert "mask 111:" in out
