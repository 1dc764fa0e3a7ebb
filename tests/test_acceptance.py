"""Acceptance suite: one test per shipped claim.

Every test funnels through the ``criterion`` decorator so the end of
the run prints one PASS/FAIL/SKIP line per claim with the measured
numbers, even when a test crashes half way.
"""

import functools
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import oracles
from conftest import record_criterion, record_criterion_skip
from momogp.circuit import StructureConfig, SumNode, build, validate
from momogp.cli import main as cli_main
from momogp.data_pipeline import (
    Dataset,
    apply_standardization,
    split,
    standardize,
    synth_multioutput,
)
from momogp.gp_leaf import GpLeaf
from momogp.images import (
    box_downsample,
    dataset_to_image,
    grid_coordinates,
    image_rmse,
    image_to_dataset,
    nearest_upsample,
    synthetic_image,
)
from momogp.inference import log_predictive_density_batch, predict_batch, renormalize
from momogp.metrics import mae, mean_nlpd, rmse
from momogp.training import TrainConfig, train

LOG2PI = math.log(2.0 * math.pi)

def criterion(number, name):
    """Register the outcome line before the assert fires."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except pytest.skip.Exception:
                raise
            except BaseException as exc:
                record_criterion(number, name, False, f"crashed: {exc!r}"[:200])
                raise
            record_criterion(number, name, bool(ok), detail)
            assert ok, f"criterion {number} ({name}): {detail}"

        return wrapper

    return deco


# ------------------------------------------------- 1: benchmark reproduction


def _locate_parkinsons():
    """The telemonitoring CSV named by MOMOGP_PARKINSONS_CSV or kept under data/, if any.

    The suite never downloads it; ``scripts/fetch_parkinsons.py`` does.
    """
    override = os.environ.get("MOMOGP_PARKINSONS_CSV")
    if override:
        return Path(override)
    data_dir = Path(__file__).resolve().parents[1] / "data"
    for name in ("parkinsons_updrs.data", "parkinsons_updrs.csv"):
        candidate = data_dir / name
        if candidate.exists():
            return candidate
    return None


@criterion(1, "telemonitoring benchmark reproduction")
def test_parkinsons_benchmark():
    path = _locate_parkinsons()
    if path is None:
        reason = (
            "telemonitoring dataset unavailable: no data/parkinsons_updrs.data and "
            "no MOMOGP_PARKINSONS_CSV override. Run scripts/fetch_parkinsons.py on a "
            "machine with network access, or point MOMOGP_PARKINSONS_CSV at the file, "
            "then rerun the suite."
        )
        record_criterion_skip(1, "telemonitoring benchmark reproduction", reason)
        pytest.skip(reason)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    if table.shape != (5875, 22):
        reason = f"dataset at {path} has shape {table.shape}, expected (5875, 22)"
        record_criterion_skip(1, "telemonitoring benchmark reproduction", reason)
        pytest.skip(reason)

    # 16 voice measures as covariates, the two UPDRS scores as outputs
    data = Dataset(table[:, 6:22], table[:, 4:6])
    train_raw, test_raw = split(data, 0.3, seed=0)
    work, stats = standardize(train_raw)
    test = apply_standardization(test_raw, stats)

    cfg = StructureConfig(
        k_sum=2, k_prod_x=2, k_prod_y=2, leaf_threshold=500, rng_seed=0
    )
    circuit = build(work, cfg)
    circuit, _ = train(circuit, work, TrainConfig(rng_seed=0))
    means, _ = predict_batch(circuit, test.x)
    got_rmse = rmse(test.y, means)
    got_mae = mae(test.y, means)
    got_nlpd = mean_nlpd(circuit, test.x, test.y, mode="moment_matched")

    ok = (
        abs(got_rmse - 0.775) <= 0.05
        and abs(got_mae - 0.605) <= 0.05
        and abs(got_nlpd - 2.208) <= 0.25
    )
    detail = (
        f"rmse {got_rmse:.4f} (target 0.775±0.05), "
        f"mae {got_mae:.4f} (target 0.605±0.05), "
        f"nlpd {got_nlpd:.4f} (target 2.208±0.25)"
    )
    return ok, detail


# --------------------------------------------------- 2: evidence identity


@criterion(2, "root evidence equals brute-force tree enumeration")
def test_root_evidence_matches_tree_enumeration():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        circuit = oracles.random_circuit(rng, max_trees=64)
        want = oracles.evidence_oracle(circuit)
        got = renormalize(circuit)
        worst = max(worst, abs(got - want))
    return worst < 1e-10, f"max |log Z gap| {worst:.2e} over 50 circuits (tol 1e-10)"


# ------------------------------------------------- 3: moment-matching oracle


@criterion(3, "predictive moments equal exact mixture moments")
def test_moments_match_tree_enumeration():
    rng = np.random.default_rng(303)
    worst_mean = 0.0
    worst_cov = 0.0
    for _ in range(50):
        circuit = oracles.random_circuit(rng, max_trees=64)
        renormalize(circuit)
        xq = rng.normal(size=(3, circuit.n_dims))
        want_mean, want_cov = oracles.moments_oracle(circuit, xq, include_noise=True)
        got_mean, got_cov = predict_batch(circuit, xq, include_noise=True)
        worst_mean = max(worst_mean, float(np.max(np.abs(got_mean - want_mean))))
        worst_cov = max(worst_cov, float(np.max(np.abs(got_cov - want_cov))))
    ok = worst_mean < 1e-10 and worst_cov < 1e-9
    return ok, (
        f"max mean gap {worst_mean:.2e} (tol 1e-10), "
        f"max cov gap {worst_cov:.2e} (tol 1e-9) over 50 circuits"
    )


# ----------------------------------------------------------- 4: GP reduction


@criterion(4, "single-leaf model reduces to the exact GP")
def test_single_leaf_reduces_to_exact_gp():
    rng = np.random.default_rng(404)
    data = oracles.random_dataset(rng, n=36, d=2, p=1)
    cfg = StructureConfig(
        k_sum=1, k_prod_x=1, k_prod_y=1, leaf_threshold=500, rng_seed=4
    )
    circuit = build(data, cfg)
    circuit, _ = train(circuit, data, TrainConfig(max_epochs=5, rng_seed=4))
    leaf_nodes = list(circuit.leaves())
    assert len(leaf_nodes) == 1
    hyper = leaf_nodes[0][1].leaf.hyperparams

    xq = rng.uniform(-2.0, 2.0, size=(100, 2))
    yq = rng.normal(size=(100, 1))
    want_mean, want_var = oracles.dense_posterior(
        data.x, data.y[:, 0], hyper, xq, include_noise=True
    )
    means, covs = predict_batch(circuit, xq, include_noise=True)
    gap_mean = float(np.max(np.abs(means[:, 0] - want_mean)))
    gap_var = float(np.max(np.abs(covs[:, 0, 0] - want_var)))

    want_ld = -0.5 * ((yq[:, 0] - want_mean) ** 2 / want_var + np.log(want_var) + LOG2PI)
    gap_ld = 0.0
    for mode in ("moment_matched", "exact_mixture"):
        got_ld = log_predictive_density_batch(circuit, xq, yq, mode=mode)
        gap_ld = max(gap_ld, float(np.max(np.abs(got_ld - want_ld))))

    ok = gap_mean < 1e-8 and gap_var < 1e-8 and gap_ld < 1e-8
    return ok, (
        f"max gaps vs dense oracle at 100 points: mean {gap_mean:.2e}, "
        f"var {gap_var:.2e}, log density {gap_ld:.2e} (tol 1e-8)"
    )


# ---------------------------------------------------------- 5: gradient check


@criterion(5, "kernel gradients match central finite differences")
def test_gradients_match_finite_differences():
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(20):
        d = (1, 3, 8)[i % 3]
        x = rng.normal(size=(14, d))
        y = np.sin(x.sum(axis=1)) + 0.2 * rng.normal(size=14)
        leaf = GpLeaf(0, x, y, oracles.random_hyperparams(rng, d)).fit()
        fd = oracles.fd_gradient(leaf)
        err = np.linalg.norm(leaf.mll_gradient() - fd) / max(1.0, np.linalg.norm(fd))
        worst = max(worst, float(err))
    return worst < 1e-4, (
        f"max rel gradient error {worst:.2e} over 20 leaves, D in {{1, 3, 8}} (tol 1e-4)"
    )


# ------------------------------------------------- 6: structural invariants


@criterion(6, "structural invariants hold after build and train")
def test_structural_invariants():
    rng = np.random.default_rng(606)
    n_problems = 0
    worst_lse = 0.0
    for i in range(100):
        data = oracles.random_dataset(rng)
        cfg = StructureConfig(
            k_sum=int(rng.integers(1, 4)),
            k_prod_x=int(rng.integers(1, 4)),
            k_prod_y=int(rng.integers(1, 4)),
            leaf_threshold=int(rng.integers(8, 26)),
            rng_seed=i,
        )
        if rng.random() < 0.2:
            cfg = replace(cfg, k_prod_x=1)  # no covariate splits
        circuit = build(data, cfg)
        n_problems += len(validate(circuit))
        circuit, _ = train(circuit, data, TrainConfig(max_epochs=1, rng_seed=i))
        for node in circuit.nodes:
            if isinstance(node, SumNode):
                worst_lse = max(worst_lse, abs(float(logsumexp(node.log_weights))))
    ok = n_problems == 0 and worst_lse < 1e-12
    return ok, (
        f"{n_problems} validation problems over 100 builds; "
        f"max |logsumexp(weights)| {worst_lse:.2e} after training (tol 1e-12)"
    )


# ------------------------------------------------- 7: correlation capture


@criterion(7, "cross-output correlation is captured")
def test_correlation_capture():
    mixing = [[1.0, 0.8, 0.6], [0.95, 0.75, 0.65]]
    data = synth_multioutput(
        100, 2, 2, seed=11, n_latents=3, mixing=mixing,
        noise_std=0.05, latent_scale=5.0,
    )
    train_raw, test_raw = split(data, 0.3, seed=11)
    work, stats = standardize(train_raw)
    test = apply_standardization(test_raw, stats)

    cfg = StructureConfig(
        k_sum=3, k_prod_x=2, k_prod_y=1, leaf_threshold=12, rng_seed=11
    )
    circuit = build(work, cfg)
    circuit, _ = train(circuit, work, TrainConfig(max_epochs=25, rng_seed=11))

    corr_gen = float(np.abs(np.corrcoef(test.y.T)[0, 1]))
    means, covs = predict_batch(circuit, test.x)
    corrs = covs[:, 0, 1] / np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
    corr_model = float(np.mean(np.abs(corrs)))
    nlpd_full = mean_nlpd(circuit, test.x, test.y, mode="moment_matched")
    nlpd_diag = mean_nlpd(
        circuit, test.x, test.y, mode="moment_matched", cross_covariance=False
    )

    ok = corr_gen > 0.5 and corr_model > 0.1 and nlpd_full <= nlpd_diag
    return ok, (
        f"generator |corr| {corr_gen:.3f} (need > 0.5), "
        f"model mean |corr| {corr_model:.3f} (need > 0.1), "
        f"nlpd full {nlpd_full:.4f} <= diagonal-ablation {nlpd_diag:.4f}"
    )


# ------------------------------------------------- 8: upsampling ordering


@criterion(8, "image upsampling beats nearest neighbor")
def test_upsampling_beats_nearest():
    truth = synthetic_image(64)
    small = box_downsample(truth, 2)
    data = image_to_dataset(small)
    work, stats = standardize(data)

    cfg = StructureConfig(
        k_sum=2, k_prod_x=2, k_prod_y=2, leaf_threshold=64, rng_seed=0
    )
    circuit = build(work, cfg)
    tcfg = TrainConfig(max_epochs=100, init_noise_variance=0.01, rng_seed=0)
    circuit, _ = train(circuit, work, tcfg)

    target_x = (grid_coordinates(64, 64) - stats.x_mean) / stats.x_std
    means, _ = predict_batch(circuit, target_x)
    model_img = dataset_to_image(means * stats.y_std + stats.y_mean, 64, 64)

    r_model = image_rmse(truth, model_img)
    r_near = image_rmse(truth, nearest_upsample(small, 2))
    ok = r_model < r_near
    return ok, f"rmse model {r_model:.4f} < nearest {r_near:.4f}"


# ------------------------------------------------------------ 9: determinism


@criterion(9, "same seed gives byte-identical model files")
def test_same_seed_byte_identical_models(tmp_path):
    data = synth_multioutput(50, 2, 2, seed=9)
    csv_path = tmp_path / "train.csv"
    rows = [
        ",".join(repr(float(v)) for v in np.concatenate([xr, yr]))
        for xr, yr in zip(data.x, data.y)
    ]
    csv_path.write_text("x_0,x_1,y_0,y_1\n" + "\n".join(rows) + "\n")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "structure": {"leaf_threshold": 15, "rng_seed": 3},
        "training": {"max_epochs": 2, "rng_seed": 3},
        "pipeline": {"n_outputs": 2},
    }))

    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(
            ["train", str(csv_path), "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    return ok, f"two runs, {len(outputs[0])} bytes each, identical: {ok}"
