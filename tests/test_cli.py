import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import partsched
from partsched import (
    BeliefGrid,
    CapacityError,
    CostParams,
    FormatError,
    PartschedError,
    ScoreSampleSet,
    SyntheticSpec,
    cli,
    fit_part_likelihood,
    load_likelihoods,
    load_policy,
    load_responses_bin,
    load_responses_csv,
    load_results_csv,
    make_synthetic,
    oracle,
    precision_recall,
    query_policy,
    read_sample_sets,
    run_grid,
    save_likelihoods,
    save_responses_bin,
    save_sample_sets,
    train_policy,
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
# recorded when inference moved onto the training tables' snapped belief
# chain (8 of the 1500 locations changed from the float-posterior engine,
# one of them from pos to neg); the engine must reproduce them byte for
# byte.  The stdout digest masks train-policy's printed V(empty, 0.5): the
# trainer's matrix products sum in another order than the per-mask loop
# that recorded it, so that value is compared to the recorded one with a
# relative tolerance.
RECORDED_RESULTS_SHA256 = "a0c3674eeabd6a35e7506f2a349ec19194acd8767b1ae0d948ddb5b3cce62c51"
RECORDED_MASKED_STDOUT_SHA256 = "416263dbb0897e325c7f8a3af50845e45291b87a6c8d81640ef7650bb33e5e4d"
RECORDED_V_EMPTY_HALF = 3.7888104187270377
V_EMPTY_HALF = re.compile(r"(?<=V\(empty, 0\.5\)=)\S+")


# sha256 digests of the recorded chain's likelihoods.json and of its
# simulate.json (40000 trials, seed 7), recorded before the samples reader,
# the KDE and the simulator's outcome draw were vectorized.  The key is the
# start belief simulate took then, which is the start every command takes now.
# simulate.json's dp_value is masked like V(empty, 0.5) above: it comes from
# the trainer's matrix products, not from the simulator, and is compared to
# the recorded value with a relative tolerance.
RECORDED_LIKELIHOODS_SHA256 = "7c5f393fc46c356658f48278e90488ccb327e239071384fcf2a24a3ef4333483"
RECORDED_MASKED_SIMULATE_SHA256 = {
    "0.5": "44a6678bddb294b432738aa062eff366cd908e7127be73a6747468f30440932e",
}
RECORDED_DP_VALUE = {"0.5": 3.788810418727038}
DP_VALUE = re.compile(r'(?<="dp_value":)[^,}]+')


# sha256 of the oracle's fields of `verify --seeds 20` (seed, optimal_value,
# trials, mean_cost, std_error per seed, as sorted-key JSON), recorded
# before the oracle's three transition builders became one.
RECORDED_VERIFY_ORACLE_SHA256 = "15a405ca870ad8e1ece0c3855e7e4fe5bff10d05ad7e2f7e4f47419f16e41482"


# sha256 digests of sweep.csv.meta.json for a three-part spec without and
# with an informativeness_profile.  First recorded while cmd_sweep still listed
# the spec's fields by hand; re-recorded when a failing point stopped the sweep
# and the meta lost its "failures" key.  Putting '"failures":[],' back after
# '"belief_bins":21,' gives the first digests, e41100dd… and b64dea30…
RECORDED_SWEEP_META_SHA256 = {
    None: "cd9f6055d692019a5c55054487d4d47693b5ba9f86e0ee30b03340d1e5c8ebb0",
    (1.0, 0.5, 0.25): "b887b890c0e01c38abd66741e82c76edd75118214de678e6a994b83ae3f94245",
}


def write_recorded_inputs():
    """The recorded chain's samples.csv and responses.bin, in the working directory."""
    # high error costs: multi-step belief chains, ~600 completed positives,
    # a nonzero bias, and a few out-of-support and infinite responses
    rng = np.random.default_rng(2024)
    sets = [ScoreSampleSet(k, rng.standard_normal(300) + 0.3 * (k + 1),
                           rng.standard_normal(300) - 0.3 * (k + 1)) for k in range(5)]
    save_sample_sets(sets, "samples.csv")
    truth = rng.random(1500) < 0.4
    means = 0.3 * np.arange(1, 6)
    scores = rng.standard_normal((1500, 5)) + np.where(truth[:, None], means, -means)
    scores[::101, 2] = np.inf
    scores[::103, 4] = -np.inf
    scores[::107, 0] = 40.0
    save_responses_bin(scores, "responses.bin")


class TestPipeline:
    def test_infer_output_matches_recorded_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_recorded_inputs()
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
        (value,) = V_EMPTY_HALF.findall(stdout)
        assert float(value) == pytest.approx(RECORDED_V_EMPTY_HALF, rel=1e-12, abs=0.0)
        masked = V_EMPTY_HALF.sub("*", stdout)
        assert hashlib.sha256(masked.encode()).hexdigest() == RECORDED_MASKED_STDOUT_SHA256

    def test_fit_and_simulate_match_recorded_digests(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_recorded_inputs()
        assert main(["fit", "--samples", "samples.csv", "--out", "liks.json"]) == 0
        assert main(["train-policy", "--likelihoods", "liks.json", "--lambda-fp", "200",
                     "--lambda-fn", "150", "--out", "policy.bin"]) == 0
        assert main(["simulate", "--policy", "policy.bin", "--likelihoods", "liks.json",
                     "--trials", "40000", "--seed", "7", "--out", "simulate.json"]) == 0
        liks = (tmp_path / "liks.json").read_bytes()
        assert hashlib.sha256(liks).hexdigest() == RECORDED_LIKELIHOODS_SHA256
        report = (tmp_path / "simulate.json").read_text()
        (value,) = DP_VALUE.findall(report)
        assert float(value) == pytest.approx(RECORDED_DP_VALUE["0.5"], rel=1e-12, abs=0.0)
        masked = DP_VALUE.sub("*", report)
        assert hashlib.sha256(masked.encode()).hexdigest() == RECORDED_MASKED_SIMULATE_SHA256["0.5"]

    def test_simulate_agrees_with_dp_value_on_an_even_grid(self, tmp_path, monkeypatch, capsys):
        # d = 20: a simulator that started one bin above the tables' start read
        # 6.6 standard errors from dp_value here
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(1404)
        means = 0.8 ** np.arange(6)
        save_sample_sets([ScoreSampleSet(k, rng.standard_normal(2000) + means[k],
                                         rng.standard_normal(2000) - means[k])
                          for k in range(6)], "samples.csv")
        assert main(["fit", "--samples", "samples.csv", "--out", "liks.json"]) == 0
        assert main(["train-policy", "--likelihoods", "liks.json", "--lambda-fp", "20",
                     "--lambda-fn", "5", "--belief-bins", "20", "--out", "policy.bin"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--policy", "policy.bin", "--likelihoods", "liks.json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 100000
        assert abs(report["mean_cost"] - report["dp_value"]) <= 4.0 * report["std_error"]

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
        # 2^64 action rows pass any machine's memory
        lik = fit_part_likelihood(ScoreSampleSet(
            0, rng.standard_normal(20) + 1.0, rng.standard_normal(20) - 1.0), n_bins=16)
        liks = [dataclasses.replace(lik, part_id=k) for k in range(64)]
        path = tmp_path / "liks.json"
        save_likelihoods(liks, path)
        code = main(["train-policy", "--likelihoods", str(path), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--belief-bins", "5", "--out", str(tmp_path / "p.bin")])
        assert code == 2

    @pytest.mark.parametrize("command", ["train-policy", "fit"])
    def test_array_past_numpys_size_limit_exits_2(self, pipeline_dir, capsys, command):
        # 2**62 entries of 8 bytes pass np.iinfo(np.intp).max: refused before any allocation
        base, samples, _ = pipeline_dir
        liks = base / "liks.json"
        assert main(["fit", "--samples", str(samples), "--out", str(liks)]) == 0
        capsys.readouterr()
        argv = (["train-policy", "--likelihoods", str(liks), "--lambda-fp", "4", "--lambda-fn",
                 "4", "--belief-bins", str(2 ** 62)] if command == "train-policy"
                else ["fit", "--samples", str(samples), "--bins", str(2 ** 62)])
        assert main(argv + ["--out", str(base / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "bytes" in err

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

    def test_prior_option_is_a_usage_error(self, pipeline_dir, capsys):
        # every command starts at Policy.start; simulate takes no start belief
        base, samples, responses = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, responses, "p")
        capsys.readouterr()
        code = main(["simulate", "--policy", str(policy), "--likelihoods", str(liks),
                     "--prior", "0.5", "--trials", "100"])
        assert code == 4
        assert "unrecognized arguments: --prior 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("bias", [["--bias", "nan"], ["--bias", "inf"], ["--bias=-inf"]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_bias_exits_4(self, pipeline_dir, bias, capsys):
        base, samples, responses = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, responses, "b")
        out = base / "r_bias.csv"
        capsys.readouterr()
        code = main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(responses), *bias, "--out", str(out)])
        assert code == 4
        assert "bias" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-policy", "infer", "simulate"])
    @pytest.mark.parametrize("defect", ["ids-0-2", "ids-0-0", "bins-16-31"])
    def test_malformed_part_set_exits_3(self, tmp_path, rng, command, defect, capsys):
        # a valid two-part policy and responses, then a likelihood file whose
        # part ids are not 0..n-1 or whose parts differ in bin count
        sets = [ScoreSampleSet(k, rng.standard_normal(50) + 1.0, rng.standard_normal(50) - 1.0)
                for k in range(2)]
        good = tmp_path / "good.json"
        save_likelihoods([fit_part_likelihood(s, n_bins=16) for s in sets], good)
        policy = tmp_path / "policy.bin"
        assert main(["train-policy", "--likelihoods", str(good), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--belief-bins", "11", "--out", str(policy)]) == 0
        responses = tmp_path / "responses.bin"
        save_responses_bin(rng.standard_normal((5, 2)), responses)
        bad = tmp_path / "bad.json"
        if defect == "bins-16-31":
            save_likelihoods([fit_part_likelihood(sets[0], n_bins=16),
                              fit_part_likelihood(sets[1], n_bins=31)], bad)
        else:
            payload = json.loads(good.read_text())
            payload[1]["part_id"] = {"ids-0-2": 2, "ids-0-0": 0}[defect]
            bad.write_text(json.dumps(payload))
        argv = {
            "train-policy": ["--lambda-fp", "4", "--lambda-fn", "4", "--out", str(tmp_path / "p.bin")],
            "infer": ["--policy", str(policy), "--responses", str(responses),
                      "--out", str(tmp_path / "r.csv")],
            "simulate": ["--policy", str(policy), "--trials", "100"],
        }[command]
        capsys.readouterr()
        assert main([command, "--likelihoods", str(bad), *argv]) == 3
        assert "part" in capsys.readouterr().err

    # samples that fit cannot turn into a usable likelihood file: part ids 0
    # and 2, a support too wide for the density floor, and a spread that
    # overflows the float range
    @pytest.mark.parametrize("defect, messages", [
        ("ids-0-2", ["part ids must be 0..1, got [0, 2]"]),
        ("span-1e6", ["part 0: support too wide", "1/PDF_FLOOR = 1e+06"]),
        ("extreme-1e308", ["overflows float range"]),
    ], ids=["ids-0-2", "span-1e6", "extreme-1e308"])
    def test_unfittable_samples_exit_3(self, tmp_path, rng, defect, messages, capsys):
        pos, neg = rng.standard_normal(20) + 1.0, rng.standard_normal(20) - 1.0
        sets = {
            "ids-0-2": [ScoreSampleSet(0, pos, neg), ScoreSampleSet(2, pos, neg)],
            "span-1e6": [ScoreSampleSet(0, np.append(pos, 1e6), neg)],
            "extreme-1e308": [ScoreSampleSet(0, np.append(pos, [1e308, -1e308]), neg)],
        }[defect]
        samples = tmp_path / "samples.csv"
        save_sample_sets(sets, samples)
        capsys.readouterr()
        assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "l.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(message in err for message in messages)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_sample_score_exits_3(self, tmp_path, score, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("part_id,label,score\n0,pos,1.0\n0,pos,2.0\n0,neg,-1.0\n"
                           f"0,neg,{score}\n0,neg,-2.0\n")
        capsys.readouterr()
        assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "l.json")]) == 3
        assert f"samples.csv:5: score must be finite, got '{score}'" in capsys.readouterr().err

    # LINE in "samples.csv:LINE:" counts physical lines, the header and
    # skipped blank lines included
    @pytest.mark.parametrize("body, message", [
        ("0,pos,1.0\n0,pos,x\n", ":3: bad row {'part_id': '0', 'label': 'pos', 'score': 'x'}"),
        ("0,pos,1.0\n0,pos,2.0\n0,maybe,3\n", ":4: label must be pos or neg, got 'maybe'"),
        ("0,pos,1.0\n0,pos\n", ":3: bad row {'part_id': '0', 'label': 'pos', 'score': None}"),
        ("0,pos,1.0\n#0,pos,3\n", ":3: bad row {'part_id': '#0', 'label': 'pos', 'score': '3'}"),
        ("0,pos,1.0\n\n0,pos,1.5\n\n0,bad,3\n", ":6: label must be pos or neg, got 'bad'"),
        ("", ": no samples found"),
    ], ids=["bad-score-line-3", "bad-label-line-4", "short-row", "comment-row",
            "blank-lines-counted", "header-only"])
    def test_malformed_samples_csv_exits_3(self, tmp_path, body, message, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("part_id,label,score\n" + body
                           + "0,pos,2.5\n0,neg,-1.0\n0,neg,-2.0\n" * bool(body))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--samples", str(samples), "--out", str(tmp_path / "l.json")])
        assert code == 3
        assert "error: " + str(samples) + message in capsys.readouterr().err
        assert caught == []

    @pytest.mark.parametrize("variant", ["quoted", "crlf", "cr", "reordered", "extra-columns",
                                         "blank-lines", "spaces-and-plus"])
    def test_samples_csv_variants_load(self, tmp_path, variant):
        rows = [(0, "pos", "1.5"), (0, "neg", "-1.0"), (1, "neg", "-0.5"), (0, "pos", "2.25"),
                (1, "pos", "0.75"), (0, "neg", "-2.0"), (1, "pos", "1e-3"), (1, "neg", "-3")]
        plain = "part_id,label,score\n" + "".join(f"{k},{l},{v}\n" for k, l, v in rows)
        text = {
            "quoted": '"part_id","label","score"\n' + "".join(f'"{k}","{l}","{v}"\n'
                                                              for k, l, v in rows),
            "crlf": plain.replace("\n", "\r\n"),
            "cr": plain.replace("\n", "\r"),
            "reordered": "score,part_id,label\n" + "".join(f"{v},{k},{l}\n" for k, l, v in rows),
            "extra-columns": "note,part_id,label,score,weight\n"
                             + "".join(f"x,{k},{l},{v},1\n" for k, l, v in rows),
            "blank-lines": plain.replace("\n", "\n\n"),
            "spaces-and-plus": "part_id,label,score\n" + "".join(f" +{k} ,{l}, {v} \n"
                                                                  for k, l, v in rows),
        }[variant]
        (tmp_path / "plain.csv").write_text(plain)
        (tmp_path / "variant.csv").write_bytes(text.encode())
        expected = read_sample_sets(tmp_path / "plain.csv")
        got = read_sample_sets(tmp_path / "variant.csv")
        assert [s.part_id for s in got] == [0, 1]
        assert [s.positives.tolist() for s in got] == [[1.5, 2.25], [0.75, 1e-3]]
        for a, b in zip(got, expected):
            assert np.array_equal(a.positives, b.positives)
            assert np.array_equal(a.negatives, b.negatives)

    @pytest.mark.parametrize("bandwidth", ["inf", "nan", "0"])
    def test_non_finite_bandwidth_exits_4(self, pipeline_dir, bandwidth, capsys):
        base, samples, _ = pipeline_dir
        code = main(["fit", "--samples", str(samples), "--bandwidth", bandwidth,
                     "--out", str(base / "l.json")])
        assert code == 4
        assert "--bandwidth" in capsys.readouterr().err

    # a negative id would wrap around to the last location or part, and a
    # repeated (location, part) row would overwrite the first
    @pytest.mark.parametrize("rows, message", [
        ("-1,0,7\n0,0,1\n", ":2: negative id"),
        ("0,-1,7\n0,0,1\n", ":2: negative id"),
        ("0,0,1\n0,0,5\n0,1,2\n", ":3: duplicate location 0, part 0"),
    ], ids=["negative-location", "negative-part", "duplicate"])
    def test_malformed_responses_csv_exits_3(self, pipeline_dir, rows, message, capsys):
        base, samples, responses = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, responses, "c")
        bad = base / "bad.csv"
        bad.write_text("location_id,part_id,score\n" + rows)
        capsys.readouterr()
        code = main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(bad), "--out", str(base / "r.csv")])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["fit --samples", "infer --policy",
                                        "infer --responses", "infer --out"])
    def test_directory_path_exits_3(self, pipeline_dir, option, capsys):
        base, samples, responses = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, responses, "d")
        command, flag = option.split()
        argv = {
            "fit": {"--samples": samples, "--out": base / "l.json"},
            "infer": {"--policy": policy, "--likelihoods": liks, "--responses": responses,
                      "--out": base / "r.csv"},
        }[command]
        argv[flag] = base
        capsys.readouterr()
        assert main([command, *(str(v) for pair in argv.items() for v in pair)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_simulate_seed_exits_4(self, pipeline_dir, capsys):
        base, samples, responses = pipeline_dir
        liks, policy, _ = run_pipeline(base, samples, responses, "seed")
        capsys.readouterr()
        code = main(["simulate", "--policy", str(policy), "--likelihoods", str(liks),
                     "--seed", "-1", "--trials", "100"])
        assert code == 4
        assert "seed" in capsys.readouterr().err

    def test_simulate_arity_mismatch_exits_5(self, pipeline_dir, rng, capsys):
        # the same pair infer rejects with exit 5: a 3-part policy, 2 likelihoods
        base, samples, responses = pipeline_dir
        _, policy, _ = run_pipeline(base, samples, responses, "arity")
        narrow = base / "narrow.json"
        save_likelihoods([fit_part_likelihood(ScoreSampleSet(
            k, rng.standard_normal(50) + 1.0, rng.standard_normal(50) - 1.0)) for k in range(2)],
            narrow)
        capsys.readouterr()
        code = main(["simulate", "--policy", str(policy), "--likelihoods", str(narrow),
                     "--trials", "100"])
        assert code == 5
        err = capsys.readouterr().err
        assert "2" in err and "3" in err

    @pytest.mark.parametrize("command", ["infer", "simulate"])
    def test_policy_trained_on_other_likelihoods_exits_5(self, pipeline_dir, rng, command,
                                                         capsys):
        # the same part and bin counts, fitted from other samples; the check comes before
        # the responses file is read, so a missing one does not make it exit 3
        base, samples, responses = pipeline_dir
        _, policy, _ = run_pipeline(base, samples, responses, "other")
        other = base / "other.json"
        save_likelihoods([fit_part_likelihood(ScoreSampleSet(
            k, rng.standard_normal(300) + 1.0, rng.standard_normal(300) - 1.0))
            for k in range(3)], other)
        out = base / "out"
        argv = {"infer": ["--responses", str(base / "missing.bin"), "--out", str(out)],
                "simulate": ["--trials", "100", "--out", str(out)]}[command]
        capsys.readouterr()
        assert main([command, "--policy", str(policy), "--likelihoods", str(other), *argv]) == 5
        assert "was trained on other likelihoods than" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_header_with_a_billion_parts_exits_3(self, pipeline_dir, capsys):
        # the payload's length is checked before 1 << n_parts is computed
        base, samples, responses = pipeline_dir
        _, policy, _ = run_pipeline(base, samples, responses, "billion")
        header, body = policy.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        fields["n_parts"] = 10 ** 9
        bad = base / "billion.bin"
        bad.write_bytes(json.dumps(fields).encode() + b"\n" + body)
        capsys.readouterr()
        assert main(["inspect", "--policy", str(bad)]) == 3
        assert "table payload is" in capsys.readouterr().err

    # json.loads reads Infinity, and int(inf) raises OverflowError
    @pytest.mark.parametrize("value", [math.inf, -math.inf, 10 ** 400],
                             ids=["Infinity", "-Infinity", "1e400"])
    def test_unrepresentable_likelihood_field_exits_3(self, tmp_path, rng, value, capsys):
        good = tmp_path / "good.json"
        save_likelihoods([fit_part_likelihood(ScoreSampleSet(
            k, rng.standard_normal(50) + 1.0, rng.standard_normal(50) - 1.0), n_bins=16)
            for k in range(2)], good)
        payload = json.loads(good.read_text())
        for field in ("part_id", "lo", "pos"):
            bad = [dict(entry) for entry in payload]
            bad[1][field] = [value] * 16 if field == "pos" else value
            path = tmp_path / f"bad_{field}.json"
            path.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main(["train-policy", "--likelihoods", str(path), "--lambda-fp", "4",
                         "--lambda-fn", "4", "--out", str(tmp_path / "p.bin")]) == 3, field
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("field", ["n_parts", "d"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["Infinity", "-Infinity"])
    def test_infinite_policy_header_field_exits_3(self, pipeline_dir, field, value, capsys):
        base, samples, responses = pipeline_dir
        _, policy, _ = run_pipeline(base, samples, responses, "hdr")
        header, body = policy.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        fields[field] = value
        bad = base / "bad.bin"
        bad.write_bytes(json.dumps(fields).encode() + b"\n" + body)
        capsys.readouterr()
        assert main(["inspect", "--policy", str(bad)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: malformed policy header")

    # the payload fits the truncated dimensions, so int() would have loaded
    # a 2.5-part header as a 2-part policy
    @pytest.mark.parametrize("n_parts, d", [(2.5, 11), (2, 11.7), (True, 11), (2, "11")],
                             ids=["n_parts-2.5", "d-11.7", "n_parts-true", "d-string"])
    def test_non_integral_policy_header_field_exits_3(self, tmp_path, n_parts, d, capsys):
        entries = (1 << int(n_parts)) * int(d)
        bad = tmp_path / "bad.bin"
        header = json.dumps({"d": d, "lambda_fn": 1.0, "lambda_fp": 1.0, "n_parts": n_parts,
                             "likelihoods_sha256": "0" * 64})
        bad.write_bytes(header.encode() + b"\n" + bytes(entries) + bytes(8 * int(d)))
        capsys.readouterr()
        assert main(["inspect", "--policy", str(bad)]) == 3
        assert "expected an integer" in capsys.readouterr().err

    # float() reads a string as the number it spells and a boolean as 0.0 or
    # 1.0, so each of these files loaded as a uniform pdf on [0, 1]
    @pytest.mark.parametrize("field", ["lo", "hi", "pos", "neg"])
    @pytest.mark.parametrize("kind", [repr, bool], ids=["string", "boolean"])
    def test_non_number_likelihood_field_exits_3(self, tmp_path, field, kind, capsys):
        uniform = {"lo": 0.0, "hi": 1.0, "pos": [1.0] * 4, "neg": [1.0] * 4}
        payload = [dict(uniform, part_id=k) for k in range(2)]
        value = uniform[field]
        payload[1][field] = [kind(v) for v in value] if field in ("pos", "neg") else kind(value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["train-policy", "--likelihoods", str(bad), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--out", str(tmp_path / "p.bin")]) == 3
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["lambda_fp", "lambda_fn"])
    @pytest.mark.parametrize("value", ["4", True], ids=["string", "boolean"])
    def test_non_number_policy_cost_exits_3(self, tmp_path, field, value, capsys):
        header = dict({"d": 11, "lambda_fn": 1.0, "lambda_fp": 1.0, "n_parts": 1}, **{field: value})
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + bytes(22) + bytes(8 * 22))
        capsys.readouterr()
        assert main(["inspect", "--policy", str(bad)]) == 3
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("ids", [(False, 1), (0, 1.9), (0, True)],
                             ids=["false-1", "0-1.9", "0-true"])
    def test_non_integral_part_id_exits_3(self, tmp_path, two_part_artifacts, ids, capsys):
        _, liks, _ = two_part_artifacts
        payload = json.loads(liks.read_text())
        for entry, part_id in zip(payload, ids):
            entry["part_id"] = part_id
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["train-policy", "--likelihoods", str(bad), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--out", str(tmp_path / "p.bin")]) == 3
        assert "expected an integer" in capsys.readouterr().err

    def test_negative_responses_header_exits_3(self, tmp_path, two_part_artifacts, capsys):
        # -1 x -9 x 8 bytes matches the 72-byte payload
        _, liks, policy = two_part_artifacts
        bad = tmp_path / "responses.bin"
        bad.write_bytes(b"-1,-9\n" + bytes(72))
        capsys.readouterr()
        assert main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(bad), "--out", str(tmp_path / "r.csv")]) == 3
        assert "negative dimension" in capsys.readouterr().err

    # invalid UTF-8, and nesting deeper than json's recursion limit
    @pytest.mark.parametrize("text", [b"\xff[]", b"[" * 100_000], ids=["utf-8", "deep"])
    @pytest.mark.parametrize("command", ["train-policy", "sweep", "inspect"])
    def test_undecodable_json_exits_3(self, tmp_path, command, text, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(text + b"\n" * (command == "inspect"))
        argv = {
            "train-policy": ["--likelihoods", str(bad), "--lambda-fp", "4", "--lambda-fn", "4",
                             "--out", str(tmp_path / "p.bin")],
            "sweep": ["--spec", str(bad), "--grid", "4,4", "--out", str(tmp_path / "s.csv")],
            "inspect": ["--policy", str(bad)],
        }[command]
        assert main([command, *argv]) == 3
        kind = {"train-policy": "not a valid likelihood file", "sweep": "not a valid spec file",
                "inspect": "malformed policy header"}[command]
        assert capsys.readouterr().err.startswith(f"error: {bad}: {kind}: ")

    def test_malformed_likelihoods_exit_3(self, tmp_path):
        bad = tmp_path / "liks.json"
        bad.write_text("{\"oops\": 1}")
        code = main(["train-policy", "--likelihoods", str(bad), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--out", str(tmp_path / "p.bin")])
        assert code == 3

    def test_missing_file_exits_3(self, tmp_path):
        code = main(["inspect", "--policy", str(tmp_path / "nope.bin")])
        assert code == 3


class TestCsvReaders:
    """The samples and responses CSV readers: loaded, or a documented exit code."""

    # a blank line is skipped; LINE still counts it
    @pytest.mark.parametrize("rows, message", [
        ("0,0,1\n\n0,1,5\n0,1,2\n", ":5: duplicate location 0, part 1"),
        ("0,0,1\n\n0,1,x\n", ":4: bad row"),
        # a field over the csv module's size limit
        ("0,0,1\n\n0,0,2" + " " * 140_000 + "\n", ":4: duplicate location 0, part 0"),
    ], ids=["duplicate", "bad-row", "duplicate-huge-field"])
    def test_responses_csv_lines_count_blank_lines(self, tmp_path, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("location_id,part_id,score\n" + rows)
        with pytest.raises(FormatError, match=re.escape(str(bad) + message)):
            load_responses_csv(bad)

    @pytest.mark.parametrize("line", ["1_0,0,2.5", "1,0,2_5", "1,0,2.5\0", "   ", "1,0"],
                             ids=["underscore-id", "underscore-score", "nul", "spaces-only",
                                  "short"])
    def test_responses_csv_bad_rows(self, tmp_path, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"location_id,part_id,score\n0,0,1\n{line}\n")
        with pytest.raises(FormatError, match=re.escape(f"{bad}:3: bad row")):
            load_responses_csv(bad)

    def test_responses_csv_variants_load(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b'score,note,part_id,location_id\r\n"2.5",a,1,0\r\n\r\n'
                         b'-inf,b,0,1\r\n1e3,c,1,1\r\n"-4",d,"0","0"\r\n')
        assert load_responses_csv(path).scores.tolist() == [[-4.0, 2.5], [-np.inf, 1000.0]]
        path.write_text("location_id,part_id,score\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_responses_csv(path).scores.shape == (0, 0)


# bodies after a valid header: mostly rows of three fields drawn per column,
# else rows of any tokens, or raw characters that CSV and number parsing treat
# specially
CSV_IDS = ["0", "1", "2", "-1", "+1", " 0", '"0"', "3.0", "0x1", "#0", "99999999999999999999", ""]
CSV_LABELS = ["pos", "neg", '"pos"', "maybe", "posx", " neg", "pos\x00", ""]
CSV_SCORES = ["1.5", "-2e3", "0", "nan", "inf", "-inf", "1e999", "1_0", '"1,5"', "x", ""]
CSV_ORDERS = ["", "0", "0;1", "2;0;1", ";", "0;;1", "255", "256", "-1", "1;x", "3.0", '"0;1"']


def csv_bodies(*columns):
    row = st.one_of(
        st.tuples(*map(st.sampled_from, columns)).map(",".join),
        st.lists(st.sampled_from(CSV_IDS + CSV_LABELS + CSV_SCORES + ['"', "\t"]),
                 max_size=5).map(",".join))
    rows = st.lists(row, max_size=12).map(lambda lines: "\n".join(lines) + "\n")
    raw = st.text(alphabet=st.sampled_from(list('0123-+.e,;"# \t\r\nposneginf\x00')),
                  max_size=60)
    return st.one_of(rows, raw)


@pytest.fixture(scope="module")
def two_part_artifacts(tmp_path_factory):
    """A two-part likelihood file and policy for infer runs on generated responses."""
    base = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(3)
    liks = base / "liks.json"
    save_likelihoods([fit_part_likelihood(ScoreSampleSet(
        k, rng.standard_normal(40) + 1.0, rng.standard_normal(40) - 1.0), n_bins=16)
        for k in range(2)], liks)
    policy = base / "policy.bin"
    assert main(["train-policy", "--likelihoods", str(liks), "--lambda-fp", "4",
                 "--lambda-fn", "4", "--belief-bins", "11", "--out", str(policy)]) == 0
    return base, liks, policy


@settings(deadline=None, max_examples=75, suppress_health_check=[HealthCheck.too_slow])
@given(body=csv_bodies(CSV_IDS, CSV_LABELS, CSV_SCORES))
def test_any_samples_body_loads_or_fit_exits_3_or_4(two_part_artifacts, body):
    base, _, _ = two_part_artifacts
    samples = base / "samples.csv"
    samples.write_bytes(("part_id,label,score\n" + body).encode())
    try:
        read_sample_sets(samples)
        loaded = True
    except FormatError:
        loaded = False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["fit", "--samples", str(samples), "--out", str(base / "fit.json")])
    assert code in ((0, 3, 4) if loaded else (3,))


@settings(deadline=None, max_examples=75, suppress_health_check=[HealthCheck.too_slow])
@given(body=csv_bodies(CSV_IDS, CSV_IDS, CSV_SCORES))
def test_any_responses_body_loads_or_infer_exits_3_or_4(two_part_artifacts, body):
    base, liks, policy = two_part_artifacts
    responses = base / "x.csv"
    responses.write_bytes(("location_id,part_id,score\n" + body).encode())
    try:
        load_responses_csv(responses)
        loaded = True
    except FormatError:
        loaded = False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(responses), "--out", str(base / "results.csv")])
    # a loaded file may still hold another part count than the policy (exit 5)
    assert code in ((0, 5) if loaded else (3,))


@st.composite
def responses_bin_files(draw):
    """A binary responses file: two small integers or any bytes as its header,
    then little-endian floats (NaN and infinities included) or any bytes."""
    if draw(st.booleans()):
        n_loc, n_parts = draw(st.integers(-3, 5)), draw(st.integers(-3, 3))
        header = b"%d,%d" % (n_loc, n_parts)
        size = abs(n_loc * n_parts) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        body = np.array(draw(st.lists(st.floats(), min_size=max(size, 0), max_size=max(size, 0))),
                        dtype="<f8").tobytes()
    else:
        header, body = draw(st.binary(max_size=12)), draw(st.binary(max_size=80))
    return header + b"\n" * draw(st.booleans()) + body


@settings(deadline=None, max_examples=75, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_responses_bin_loads_or_infer_exits_3(two_part_artifacts, data):
    base, liks, policy = two_part_artifacts
    responses = base / "x.bin"
    responses.write_bytes(data.draw(responses_bin_files()))
    try:
        load_responses_bin(responses)
        loaded = True
    except FormatError:
        loaded = False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["infer", "--policy", str(policy), "--likelihoods", str(liks),
                     "--responses", str(responses), "--out", str(base / "results.csv")])
    assert code in ((0, 5) if loaded else (3,))


@settings(deadline=None, max_examples=75, suppress_health_check=[HealthCheck.too_slow])
@given(body=csv_bodies(CSV_IDS, CSV_LABELS, CSV_SCORES, CSV_IDS, CSV_ORDERS))
def test_any_results_body_loads_or_raises_format_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("results") / "results.csv"
    path.write_bytes(("location_id,label,score,tau,parts_order\n" + body).encode())
    try:
        results = load_results_csv(path)
    except FormatError:
        return
    assert len(results) == len(results.location_id)


# JSON values a field may hold instead of its own: numbers json.loads reads
# but int() and float() cannot take, wrong types and nested containers
JSON_ODD = st.recursive(
    st.one_of(st.none(), st.booleans(), st.sampled_from([math.inf, -math.inf, math.nan]),
              st.integers(-2, 30), st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 64]),
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@st.composite
def likelihood_files(draw, base):
    """A two-part likelihood file with one field of one part replaced, or any JSON text."""
    if draw(st.booleans()):
        return json.dumps(draw(JSON_ODD))
    payload = json.loads(base)
    entry = payload[draw(st.sampled_from([0, 1]))]
    key = draw(st.sampled_from(["part_id", "lo", "hi", "pos", "neg", "extra"]))
    if key in ("pos", "neg") and draw(st.booleans()):
        entry[key][draw(st.integers(0, len(entry[key]) - 1))] = draw(JSON_ODD)
    elif draw(st.booleans()):
        entry.pop(key, None)
    else:
        entry[key] = draw(JSON_ODD)
    return json.dumps(payload)


@settings(deadline=None, max_examples=75, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_likelihood_file_loads_or_exits_3(two_part_artifacts, data):
    base, liks, _ = two_part_artifacts
    path = base / "odd_liks.json"
    path.write_text(data.draw(likelihood_files(liks.read_text())))
    try:
        load_likelihoods(path)
        loaded = True
    except FormatError:
        loaded = False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["train-policy", "--likelihoods", str(path), "--lambda-fp", "4",
                     "--lambda-fn", "4", "--belief-bins", "5", "--out", str(base / "odd.bin")])
    assert code == (0 if loaded else 3)


@st.composite
def policy_files(draw, base):
    """A policy file with one header field replaced, or any header line, before some body."""
    header, body = base.split(b"\n", 1)
    fields = json.loads(header)
    choice = draw(st.sampled_from(["field", "header", "raw"]))
    if choice == "field":
        key = draw(st.sampled_from(["n_parts", "d", "lambda_fp", "lambda_fn",
                                    "likelihoods_sha256", "extra"]))
        fields[key] = draw(JSON_ODD)
        header = json.dumps(fields).encode()
    elif choice == "header":
        header = json.dumps(draw(JSON_ODD)).encode()
    else:
        header = draw(st.binary(max_size=20))
    if draw(st.booleans()):
        body = draw(st.binary(max_size=64))
    return header + b"\n" * draw(st.booleans()) + body


@settings(deadline=None, max_examples=75, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_policy_file_loads_or_exits_2_or_3(two_part_artifacts, data):
    base, _, policy = two_part_artifacts
    path = base / "odd_policy.bin"
    path.write_bytes(data.draw(policy_files(policy.read_bytes())))
    try:
        load_policy(path)
        expected = (0,)
    except (FormatError, CapacityError):
        expected = (2, 3)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["inspect", "--policy", str(path)])
    assert code in expected


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_sweep_spec_loads_or_raises_3_or_4(tmp_path_factory, data):
    spec = {"n_parts": 2, "separation": 1.0, "prior_positive": 0.5, "n_locations": 10,
            "seed": 1, "train_samples": 300}
    spec[data.draw(st.sampled_from([*spec, "informativeness_profile", "extra"]))] = \
        data.draw(JSON_ODD)
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(spec))
    try:
        loaded = cli._load_spec(path)
    except PartschedError as exc:
        assert exc.exit_code in (3, 4)
        return
    # a loaded spec's numbers are usable: none overflows on the way to float
    assert all(math.isfinite(float(v)) for v in (loaded.separation, loaded.prior_positive,
                                                  *(loaded.informativeness_profile or ())))


def error_classes(cls=PartschedError):
    """Every subclass of `cls`, depth first."""
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


def test_every_error_class_declares_a_documented_exit_code():
    classes = list(error_classes())
    assert len(classes) == 8
    for cls in classes:
        assert "exit_code" in vars(cls) and cls.exit_code in {2, 3, 4, 5}, cls.__name__


def raise_boom(cls):
    def fail():
        raise cls("boom")
    return fail


def two_part_model_and_policy(cost):
    spec = SyntheticSpec(n_parts=2, separation=2.0, prior_positive=0.5, n_locations=4, seed=1,
                         train_samples=50)
    model = make_synthetic(spec)[0]
    return model, train_policy(model.likelihoods, CostParams(cost, cost), BeliefGrid(11))


def run_grid_on_three_part_responses():
    model, policy = two_part_model_and_policy(4.0)
    spec = SyntheticSpec(n_parts=3, separation=2.0, prior_positive=0.5, n_locations=4, seed=1,
                         train_samples=50)
    run_grid(model, policy, make_synthetic(spec)[1])


def query_past_the_last_mask():
    query_policy(two_part_model_and_policy(4.0)[1], 4, 0.5)


def step_trace_on_an_empty_script():
    # errors cost far more than a part, so the start state evaluates one
    model, policy = two_part_model_and_policy(100.0)
    oracle.step_trace(policy, model.likelihoods, [])


def precision_recall_without_positives():
    precision_recall([], np.array([False]))


# A class folded into a surviving one kept its exit code and message: each case named
# after a folded class raises from that class's old site, with the code it had.
FOLDED_CLASS_SITES = [
    pytest.param(5, run_grid_on_three_part_responses, "responses have 3 parts, policy has 2",
                 id="ArityMismatchError"),
    pytest.param(4, step_trace_on_an_empty_script,
                 "script exhausted after 0 evaluations without a stop decision",
                 id="InsufficientScriptError"),
    pytest.param(4, query_past_the_last_mask, "mask 4 outside 0..3", id="InvalidStateError"),
    pytest.param(4, precision_recall_without_positives,
                 "precision/recall needs at least one positive location", id="UndefinedMetricError"),
]


@pytest.mark.parametrize("code, fail, message", [
    *(pytest.param(cls.exit_code, raise_boom(cls), "boom", id=cls.__name__)
      for cls in error_classes()),
    *FOLDED_CLASS_SITES,
])
def test_main_exits_with_the_error_class_code(code, fail, message, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_inspect", lambda args: fail())
    assert main(["inspect", "--policy", "policy.bin"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("message, line", [
    ("", "error: out of memory\n"),
    ("Unable to allocate 16.0 PiB", "error: out of memory: Unable to allocate 16.0 PiB\n"),
], ids=["bare", "numpy"])
def test_memory_error_exits_2_with_one_line(two_part_artifacts, tmp_path, monkeypatch, capsys,
                                            message, line):
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "train_policy", fail)
    _, liks, _ = two_part_artifacts
    assert main(["train-policy", "--likelihoods", str(liks), "--lambda-fp", "1",
                 "--lambda-fn", "1", "--out", str(tmp_path / "p.bin")]) == CapacityError.exit_code
    assert capsys.readouterr().err == line


def test_train_policy_bytes_independent_of_blas_threads(tmp_path):
    # the trainer's values come from BLAS matrix products; one and two BLAS
    # threads must write the same policy file
    spec = SyntheticSpec(n_parts=10, separation=2.0, prior_positive=0.3, n_locations=10, seed=31)
    liks = tmp_path / "liks.json"
    save_likelihoods(make_synthetic(spec)[0].likelihoods, liks)
    src = str(Path(partsched.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    policies = []
    for threads in ("1", "2"):
        out = tmp_path / f"policy_{threads}.bin"
        env = {**os.environ, "PYTHONPATH": pythonpath,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "partsched", "train-policy",
                               "--likelihoods", str(liks), "--lambda-fp", "20",
                               "--lambda-fn", "5", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        policies.append(out.read_bytes())
    assert policies[0] == policies[1]


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

    def test_fault_injection_fails(self, tmp_path, capsys, monkeypatch):
        exhaustive = oracle.exhaustive_value_row
        monkeypatch.setattr(oracle, "exhaustive_value_row",
                            lambda inst: exhaustive(inst) + 0.01)
        code = main(["verify", "--seeds", "3", "--trials", "500",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_exits_4(self, seeds, capsys):
        assert main(["verify", "--seeds", seeds, "--trials", "500"]) == 4
        assert "--seeds" in capsys.readouterr().err

    def test_oracle_fields_pinned(self, tmp_path, capsys):
        # dp_value and abs_diff come from the trainer's BLAS products and are
        # left out; every other field is the oracle's own arithmetic
        report = tmp_path / "report.json"
        assert main(["verify", "--seeds", "20", "--out", str(report)]) == 0
        fields = [{k: s[k] for k in ("seed", "optimal_value", "trials", "mean_cost", "std_error")}
                  for s in json.loads(report.read_text())["seeds"]]
        digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()
        assert digest == RECORDED_VERIFY_ORACLE_SHA256

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
                     "--belief-bins", "21", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda_fp,lambda_fn,ap,rnpe,mean_tau,fp_rate,fn_rate,ap_full,delta_ap"
        assert len(lines) == 2
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["spec"]["seed"] == 8
        assert meta["grid"] == [[8.0, 4.0]]

    @pytest.mark.parametrize("profile", list(RECORDED_SWEEP_META_SHA256),
                             ids=["no-profile", "profile"])
    def test_sweep_meta_matches_recorded_digest(self, tmp_path, profile):
        spec = {"n_parts": 3, "separation": 3.0, "prior_positive": 0.5,
                "n_locations": 200, "seed": 8, "train_samples": 300}
        if profile:
            spec["informativeness_profile"] = list(profile)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec_path), "--grid", "8,4;4,4",
                     "--belief-bins", "21", "--out", str(out)]) == 0
        meta = (tmp_path / "sweep.csv.meta.json").read_bytes()
        assert hashlib.sha256(meta).hexdigest() == RECORDED_SWEEP_META_SHA256[profile]

    def test_sweep_malformed_spec_exits_3(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{\"n_parts\": 3, \"bogus\": true}")
        code = main(["sweep", "--spec", str(spec_path), "--grid", "4,4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 3

    # a separation too wide for the density floor or for a finite bandwidth
    # is the spec's fault, not a file's
    @pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5),
                                              ("n_locations", 10.5), ("train_samples", 300.5),
                                              ("informativeness_profile", [float("nan"), 1.0]),
                                              ("separation", 1e6), ("separation", 1e308),
                                              ("informativeness_profile", "abc"),
                                              ("prior_positive", "0.3")],
                             ids=["seed--1", "seed-1.5", "n_locations-10.5",
                                  "train_samples-300.5", "informativeness_profile-nan",
                                  "separation-1e6", "separation-1e308",
                                  "informativeness_profile-abc", "prior_positive-string"])
    def test_sweep_invalid_spec_field_exits_4(self, tmp_path, field, value, capsys):
        spec = {"n_parts": 2, "separation": 1.0, "prior_positive": 0.5,
                "n_locations": 10, "seed": 1, "train_samples": 300, field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["sweep", "--spec", str(spec_path), "--grid", "4,4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4
        assert field in capsys.readouterr().err

    def test_sweep_with_every_point_failing_exits_with_its_code(self, tmp_path, capsys):
        # 30 parts exceed the policy table budget at the first cost point (exit 2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_parts": 30, "separation": 1.0, "prior_positive": 0.5,
            "n_locations": 10, "seed": 1, "train_samples": 50,
        }))
        code = main(["sweep", "--spec", str(spec_path), "--grid", "4,4;8,4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_sweep_bad_grid_exits_4(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_parts": 2, "separation": 1.0, "prior_positive": 0.5,
            "n_locations": 10, "seed": 1,
        }))
        code = main(["sweep", "--spec", str(spec_path), "--grid", "4:4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4

    # NaN is not JSON, and NaN != NaN would let a repeated NaN point through; a zero
    # or negative cost fails before the good point runs
    @pytest.mark.parametrize("grid", ["nan,1;2,2", "4,inf", "-inf,4", "nan,1;nan,1",
                                      "4,4;0,4", "4,4;4,-1"])
    def test_sweep_non_finite_grid_exits_4_and_writes_nothing(self, tmp_path, grid, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_parts": 2, "separation": 1.0, "prior_positive": 0.5,
            "n_locations": 10, "seed": 1,
        }))
        code = main(["sweep", "--spec", str(spec_path), f"--grid={grid}",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 4
        assert "lambda grid values must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

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

    def test_start_is_labelled_with_its_center_on_an_even_grid(self, tmp_path, rng, capsys):
        # d = 20: Policy.start is bin 9, whose center is 9/19, not 0.5
        liks = [fit_part_likelihood(ScoreSampleSet(
            k, rng.standard_normal(200) + 1.0, rng.standard_normal(200) - 1.0)) for k in range(2)]
        liks_path, policy_path = tmp_path / "l.json", tmp_path / "p.bin"
        save_likelihoods(liks, liks_path)
        capsys.readouterr()
        assert main(["train-policy", "--likelihoods", str(liks_path), "--lambda-fp", "20",
                     "--lambda-fn", "5", "--belief-bins", "20", "--out", str(policy_path)]) == 0
        train_out = capsys.readouterr().out
        assert main(["inspect", "--policy", str(policy_path)]) == 0
        inspect_out = capsys.readouterr().out
        policy = load_policy(policy_path)
        value = f"V(empty, 0.4737)={float(policy.values[9])!r}"
        assert value in train_out and value in inspect_out
        assert "initial action at p=0.4737: " in inspect_out
        assert inspect_out.count(" at p=0.4737 -> ") == 4
        assert "p=0.5" not in inspect_out and "(empty, 0.5)" not in train_out + inspect_out

    def test_inspect_per_mask_summary(self, pipeline_dir, capsys):
        base, samples, responses = pipeline_dir
        _, policy, _ = run_pipeline(base, samples, responses, "i")
        capsys.readouterr()
        assert main(["inspect", "--policy", str(policy)]) == 0
        out = capsys.readouterr().out
        assert "mask 000:" in out
        assert "mask 111:" in out

    def test_inspect_stage_summary(self, tmp_path, rng, capsys):
        # 7 parts make 128 masks, past the per-mask listing's 64
        liks = [fit_part_likelihood(ScoreSampleSet(
            k, rng.standard_normal(30) + 1.0, rng.standard_normal(30) - 1.0), n_bins=16)
            for k in range(7)]
        liks_path, policy_path = tmp_path / "l.json", tmp_path / "p.bin"
        save_likelihoods(liks, liks_path)
        assert main(["train-policy", "--likelihoods", str(liks_path), "--lambda-fp", "20",
                     "--lambda-fn", "5", "--belief-bins", "11", "--out", str(policy_path)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--policy", str(policy_path)]) == 0
        stages = [l for l in capsys.readouterr().out.splitlines() if l.startswith("stage ")]
        policy = load_policy(policy_path)
        expected = []
        for used in range(8):
            masks = [m for m in range(128) if bin(m).count("1") == used]
            n_label = int((policy.actions[masks] <= 1).sum())
            expected.append(f"stage used={used}: masks={len(masks)} label_entries={n_label} "
                            f"part_entries={len(masks) * 11 - n_label}")
        assert stages == expected
