"""Metric definitions."""

import math

import numpy as np
import pytest

from momogp.circuit import LeafNode, Region, StructureConfig, SumNode, Circuit
from momogp.gp_leaf import GpLeaf, KernelHyperparams
from momogp.metrics import EvalResult, mae, mean_nlpd, per_output_rmse, rmse


def test_per_output_rmse_known_values():
    y_true = np.array([[0.0, 0.0], [0.0, 0.0]])
    y_pred = np.array([[1.0, 2.0], [-1.0, 2.0]])
    np.testing.assert_allclose(per_output_rmse(y_true, y_pred), [1.0, 2.0])


def test_rmse_averages_per_output_not_pooled():
    # per-output RMSEs are 1 and 2 -> average 1.5; pooled RMSE would be
    # sqrt((1+4)/2) = 1.581..., a different number
    y_true = np.zeros((2, 2))
    y_pred = np.array([[1.0, 2.0], [-1.0, 2.0]])
    assert rmse(y_true, y_pred) == pytest.approx(1.5)
    pooled = math.sqrt(np.mean((y_true - y_pred) ** 2))
    assert rmse(y_true, y_pred) != pytest.approx(pooled)


def test_mae_pools_all_entries():
    y_true = np.zeros((2, 2))
    y_pred = np.array([[1.0, -3.0], [0.0, 2.0]])
    assert mae(y_true, y_pred) == pytest.approx(1.5)


def test_metric_shape_checks():
    with pytest.raises(ValueError):
        rmse(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        mae(np.zeros((0, 1)), np.zeros((0, 1)))
    # 1-d vectors are promoted to single-output columns
    assert rmse(np.zeros(4), np.ones(4)) == pytest.approx(1.0)


def test_mean_nlpd_single_gaussian():
    # single leaf at the query point: predictive is N(1, 1.5); scoring
    # the mean observation gives 0.5 log(2 pi 1.5)
    leaf = GpLeaf(0, [[0.0]], [2.0], KernelHyperparams([0.0], 0.0, 0.0)).fit()
    region = Region.unbounded(1)
    nodes = [
        LeafNode(leaf, region),
        SumNode([0], np.zeros(1), region),
    ]
    circuit = Circuit(nodes, 1, 1, 1, StructureConfig())
    got = mean_nlpd(circuit, np.array([[0.0]]), np.array([[1.0]]))
    assert got == pytest.approx(0.5 * math.log(2 * math.pi * 1.5), rel=1e-12)


def test_eval_result_serialization():
    res = EvalResult(
        n_test=10, rmse=0.5, mae=0.4, mean_nlpd=1.2,
        nlpd_mode="moment_matched", per_output_rmse=[0.4, 0.6],
    )
    d = res.to_dict()
    assert d["rmse"] == 0.5 and "mean_nlpd_exact" not in d
    text = res.format_text()
    assert "rmse=0.500000" in text
    assert "rmse_output_1=0.600000" in text
    res.mean_nlpd_exact = 1.1
    assert "mean_nlpd_exact" in res.to_dict()
    assert "mean_nlpd_exact=1.100000" in res.format_text()
