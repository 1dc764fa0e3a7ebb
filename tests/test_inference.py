"""Evidence, renormalization and predictive moment/density tests."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import oracles
from momogp.circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    Region,
    StructureConfig,
    SumNode,
    build,
    count_induced_trees,
)
from momogp.data_pipeline import Dataset, synth_multioutput
from momogp.errors import NotFittedError, NumericalError
from momogp.gp_leaf import GpLeaf, KernelHyperparams
from momogp.inference import (
    _gaussian_logpdf_rows,
    compute_evidence,
    log_predictive_density_batch,
    predict_batch,
    renormalize,
)
from momogp.training import TrainConfig, train


class StubLeaf:
    """Constant-output stand-in for a GP expert; used for closed-form cases."""

    def __init__(self, mean, var, mll=0.0, output=0):
        self.scope_output = output
        self.cached_mll = mll
        self._mean = float(mean)
        self._var = float(var)

    def is_fitted(self):
        return True

    def posterior_batch(self, x, include_noise=False):
        b = x.shape[0]
        return np.full(b, self._mean), np.full(b, self._var)


def manual_circuit(nodes, root, p=1, d=1):
    return Circuit(nodes, root, p, d, StructureConfig())


def is_psd(cov, tol=1e-8):
    scale = max(float(np.trace(cov)), 1.0)
    return bool(np.linalg.eigvalsh(cov).min() >= -tol * scale)


R1 = Region.unbounded(1)
X0 = np.array([[0.0]])


# ------------------------------------------------------------------ evidence


def test_evidence_matches_tree_enumeration():
    rng = np.random.default_rng(20)
    for _ in range(20):
        circuit = oracles.random_circuit(rng)
        z = compute_evidence(circuit)
        assert z[circuit.root] == pytest.approx(
            oracles.evidence_oracle(circuit), abs=1e-10, rel=1e-12
        )


def test_evidence_requires_fitted_leaves():
    data = Dataset(np.linspace(0, 1, 8)[:, None], np.zeros((8, 1)))
    circuit = build(data, StructureConfig(leaf_threshold=4, rng_seed=0))
    with pytest.raises(NotFittedError):
        compute_evidence(circuit)


def test_evidence_refuses_leaves_whose_hyperparams_changed_since_the_fit():
    data = synth_multioutput(60, 2, 2, seed=9)
    circuit = build(data, StructureConfig(leaf_threshold=15))
    circuit, _ = train(circuit, data, TrainConfig(max_epochs=1))
    for _, node in circuit.leaves():
        node.leaf.hyperparams = KernelHyperparams.from_vector(
            node.leaf.hyperparams.to_vector() + 0.5, circuit.n_dims
        )
    with pytest.raises(NotFittedError):
        compute_evidence(circuit)


def test_renormalize_two_component_example():
    # prior (1/2, 1/2) with child evidences (0, log 3):
    # Z = log 2, posterior weights (1/4, 3/4)
    nodes = [
        LeafNode(StubLeaf(0, 1, mll=0.0), R1),
        LeafNode(StubLeaf(0, 1, mll=math.log(3.0)), R1),
    ]
    nodes.append(
        SumNode([0, 1], np.log([0.5, 0.5]), R1)
    )
    circuit = manual_circuit(nodes, 2)
    log_z = renormalize(circuit)
    assert log_z == pytest.approx(math.log(2.0), rel=1e-14)
    np.testing.assert_allclose(
        np.exp(circuit.nodes[2].log_weights), [0.25, 0.75], rtol=1e-14
    )


def test_renormalized_weights_sum_to_one_everywhere():
    rng = np.random.default_rng(21)
    for _ in range(10):
        circuit = oracles.random_circuit(rng)
        renormalize(circuit)
        for node in circuit.nodes:
            if isinstance(node, SumNode):
                total = np.logaddexp.reduce(node.log_weights)
                assert abs(total) < 1e-12


# ------------------------------------------------------------------- moments


def test_mixture_variance_two_components():
    # equally weighted components at -1 and +1, unit variance:
    # mean 0, variance = E[v] + E[m^2] = 1 + 1 = 2
    nodes = [
        LeafNode(StubLeaf(-1.0, 1.0), R1),
        LeafNode(StubLeaf(1.0, 1.0), R1),
        SumNode([0, 1], np.log([0.5, 0.5]), R1),
    ]
    circuit = manual_circuit(nodes, 2)
    means, covs = predict_batch(circuit, X0)
    assert means[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert covs[0, 0, 0] == pytest.approx(2.0, rel=1e-14)


def test_mixture_cross_covariance_two_outputs():
    # two output blocks whose joint means disagree across the two
    # components ((0,0) vs (1,1)) with zero within-component variance:
    # cov = [[1/4, 1/4], [1/4, 1/4]]
    nodes = [
        LeafNode(StubLeaf(0.0, 0.0, output=0), R1),
        LeafNode(StubLeaf(0.0, 0.0, output=1), R1),
        None,
        LeafNode(StubLeaf(1.0, 0.0, output=0), R1),
        LeafNode(StubLeaf(1.0, 0.0, output=1), R1),
        None,
        None,
    ]
    nodes[2] = ProductYNode([0, 1], R1)
    nodes[5] = ProductYNode([3, 4], R1)
    nodes[6] = SumNode([2, 5], np.log([0.5, 0.5]), R1)
    circuit = manual_circuit(nodes, 6, p=2)
    means, covs = predict_batch(circuit, X0)
    np.testing.assert_allclose(means[0], [0.5, 0.5], rtol=1e-14)
    np.testing.assert_allclose(covs[0], [[0.25, 0.25], [0.25, 0.25]], rtol=1e-14)
    assert is_psd(covs[0])
    # ablation drops exactly the off-diagonal entries
    _, ablated = predict_batch(circuit, X0, cross_covariance=False)
    np.testing.assert_allclose(ablated[0], [[0.25, 0.0], [0.0, 0.25]], rtol=1e-14)


def test_single_leaf_circuit_reduces_to_its_gp():
    rng = np.random.default_rng(22)
    x = rng.uniform(-1, 1, size=(24, 2))
    y = np.sin(x @ np.array([1.5, -0.7]))[:, None]
    cfg = StructureConfig(k_sum=1, k_prod_x=1, k_prod_y=1, leaf_threshold=50, rng_seed=0)
    circuit = build(Dataset(x, y), cfg)
    leaf_ids = circuit.leaf_ids()
    assert len(leaf_ids) == 1
    leaf = circuit.nodes[leaf_ids[0]].leaf
    leaf.refit(KernelHyperparams([math.log(0.8), math.log(1.2)], 0.1, math.log(0.05)))
    renormalize(circuit)
    xq = rng.uniform(-1, 1, size=(30, 2))
    for noise in (True, False):
        means, covs = predict_batch(circuit, xq, include_noise=noise)
        ref_mean, ref_var = leaf.posterior_batch(xq, include_noise=noise)
        np.testing.assert_array_equal(means[:, 0], ref_mean)
        np.testing.assert_array_equal(covs[:, 0, 0], ref_var)
    # and the GP itself agrees with the dense textbook formulas
    om, ov = oracles.dense_posterior(
        x, y[:, 0], leaf.hyperparams, xq, include_noise=False
    )
    means, covs = predict_batch(circuit, xq, include_noise=False)
    np.testing.assert_allclose(means[:, 0], om, rtol=0, atol=1e-8)
    np.testing.assert_allclose(covs[:, 0, 0], ov, rtol=0, atol=1e-8)


def test_moments_match_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(15):
        circuit = oracles.random_circuit(rng)
        renormalize(circuit)
        xq = rng.normal(size=(8, circuit.n_dims))
        for noise in (True, False):
            means, covs = predict_batch(circuit, xq, include_noise=noise)
            om, oc = oracles.moments_oracle(circuit, xq, include_noise=noise)
            np.testing.assert_allclose(means, om, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(covs, oc, rtol=1e-8, atol=1e-9)


def test_cross_covariance_flag_only_zeroes_off_diagonal():
    rng = np.random.default_rng(24)
    circuit = oracles.random_circuit(rng)
    renormalize(circuit)
    xq = rng.normal(size=(6, circuit.n_dims))
    means_a, covs_a = predict_batch(circuit, xq)
    means_b, covs_b = predict_batch(circuit, xq, cross_covariance=False)
    np.testing.assert_array_equal(means_a, means_b)
    p = circuit.n_outputs
    diag = np.arange(p)
    np.testing.assert_allclose(
        covs_a[:, diag, diag], covs_b[:, diag, diag], rtol=1e-13
    )
    off = ~np.eye(p, dtype=bool)
    assert np.all(covs_b[:, off] == 0.0)


def test_predictive_covariances_are_psd():
    rng = np.random.default_rng(25)
    for _ in range(8):
        circuit = oracles.random_circuit(rng)
        renormalize(circuit)
        xq = rng.normal(size=(5, circuit.n_dims))
        for row in range(5):
            _, covs = predict_batch(circuit, xq[row : row + 1])
            assert is_psd(covs[0])


def test_query_validation():
    rng = np.random.default_rng(26)
    circuit = oracles.random_circuit(rng)
    with pytest.raises(ValueError):
        predict_batch(circuit, np.zeros((2, circuit.n_dims + 1)))
    bad = np.zeros((2, circuit.n_dims))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        predict_batch(circuit, bad)


# ------------------------------------------------------------------- routing


def test_routing_edges_go_right():
    cells = R1.cut(0, [0.0, 2.0])
    leaves = [
        LeafNode(StubLeaf(float(i), 1.0), cells[i])
        for i in range(3)
    ]
    px = ProductXNode([0, 1, 2], 0, [0.0, 2.0], R1)
    circuit = manual_circuit(leaves + [px], 3)
    xq = np.array([[-1.0], [0.0], [1.99], [2.0], [50.0]])
    means, _ = predict_batch(circuit, xq)
    # a value equal to an interior edge belongs to the right cell
    np.testing.assert_array_equal(means[:, 0], [0.0, 1.0, 1.0, 2.0, 2.0])
    # routing agrees with half-open region membership
    for row, mean in zip(xq, means[:, 0]):
        assert oracles.in_region(cells[int(mean)], row[None, :])[0]


# ------------------------------------------------------------------ densities


def test_exact_density_matches_enumeration_oracle():
    rng = np.random.default_rng(27)
    for _ in range(10):
        circuit = oracles.random_circuit(rng)
        renormalize(circuit)
        xq = rng.normal(size=(6, circuit.n_dims))
        yq = rng.normal(size=(6, circuit.n_outputs))
        got = log_predictive_density_batch(circuit, xq, yq, mode="exact_mixture")
        want = oracles.density_oracle(circuit, xq, yq)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)


def test_moment_matched_density_is_gaussian_in_matched_moments():
    rng = np.random.default_rng(28)
    circuit = oracles.random_circuit(rng)
    renormalize(circuit)
    xq = rng.normal(size=(5, circuit.n_dims))
    yq = rng.normal(size=(5, circuit.n_outputs))
    got = log_predictive_density_batch(circuit, xq, yq)
    means, covs = predict_batch(circuit, xq)
    p = circuit.n_outputs
    for i in range(5):
        resid = yq[i] - means[i]
        want = -0.5 * (
            resid @ np.linalg.solve(covs[i], resid)
            + np.linalg.slogdet(covs[i])[1]
            + p * math.log(2 * math.pi)
        )
        assert got[i] == pytest.approx(want, rel=1e-9)


def random_spd_rows(rng, b, p):
    a = rng.normal(size=(b, p, p))
    covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(p)
    return rng.normal(size=(b, p)), rng.normal(size=(b, p)), covs


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_batched_density_matches_scipy_per_row(p):
    rng = np.random.default_rng(40 + p)
    for b in (1, 9, 500):
        y, means, covs = random_spd_rows(rng, b, p)
        got = _gaussian_logpdf_rows(y, means, covs)
        want = [multivariate_normal.logpdf(y[i], means[i], covs[i]) for i in range(b)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_batched_density_jitters_only_the_failing_row():
    rng = np.random.default_rng(44)
    y, means, covs = random_spd_rows(rng, 20, 3)
    u = rng.normal(size=3)
    covs[7] = np.outer(u, u)  # rank 1: PSD but not positive definite
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(covs[7])
    got = _gaussian_logpdf_rows(y, means, covs)
    assert np.isfinite(got[7])
    without = _gaussian_logpdf_rows(*(np.delete(a, 7, axis=0) for a in (y, means, covs)))
    assert np.array_equal(np.delete(got, 7), without)


def test_batched_density_names_the_unrecoverable_row():
    rng = np.random.default_rng(45)
    y, means, covs = random_spd_rows(rng, 20, 3)
    covs[7] = -np.eye(3)
    with pytest.raises(NumericalError, match="row 7"):
        _gaussian_logpdf_rows(y, means, covs)


def test_single_tree_circuit_densities_agree():
    # one induced tree: the mixture is a diagonal Gaussian, so both
    # density modes are the same number
    rng = np.random.default_rng(29)
    data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
    cfg = StructureConfig(k_sum=1, leaf_threshold=8, rng_seed=0)
    circuit = build(data, cfg)
    for _, node in circuit.leaves():
        node.leaf.fit()
    renormalize(circuit)
    assert count_induced_trees(circuit) == 1
    xq = rng.normal(size=(7, 2))
    yq = rng.normal(size=(7, 2))
    mm = log_predictive_density_batch(circuit, xq, yq, mode="moment_matched")
    ex = log_predictive_density_batch(circuit, xq, yq, mode="exact_mixture")
    np.testing.assert_allclose(mm, ex, rtol=1e-9)


def test_exact_density_past_the_old_cap_matches_recursion_oracle():
    # 2,844 nodes and about 1.4e7 induced trees: too many to enumerate
    data = synth_multioutput(100, 2, 1, seed=0)
    work = Dataset(data.x[:80], data.y[:80])
    circuit = build(work, StructureConfig(k_sum=3, leaf_threshold=8, rng_seed=0))
    circuit, _ = train(circuit, work, TrainConfig(max_epochs=2, rng_seed=0))
    assert count_induced_trees(circuit) > 10**6
    xq, yq = data.x[80:], data.y[80:]
    got = log_predictive_density_batch(circuit, xq, yq, mode="exact_mixture")
    want = oracles.density_recursion_oracle(circuit, xq, yq)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_density_input_validation():
    rng = np.random.default_rng(31)
    circuit = oracles.random_circuit(rng)
    renormalize(circuit)
    xq = np.zeros((2, circuit.n_dims))
    with pytest.raises(ValueError):
        log_predictive_density_batch(circuit, xq, np.zeros((3, circuit.n_outputs)))
    with pytest.raises(ValueError):
        log_predictive_density_batch(
            circuit, xq, np.zeros((2, circuit.n_outputs)), mode="typo"
        )
    bad_y = np.zeros((2, circuit.n_outputs))
    bad_y[0, 0] = np.inf
    with pytest.raises(ValueError):
        log_predictive_density_batch(circuit, xq, bad_y)


def test_single_point_wrappers():
    leaf = GpLeaf(0, [[0.0]], [2.0], KernelHyperparams([0.0], 0.0, 0.0)).fit()
    nodes = [
        LeafNode(leaf, R1),
        SumNode([0], np.zeros(1), R1),
    ]
    circuit = manual_circuit(nodes, 1)
    means, covs = predict_batch(circuit, X0)
    assert means[0, 0] == pytest.approx(1.0)
    # observation variance = latent 0.5 + noise 1.0
    assert covs[0, 0, 0] == pytest.approx(1.5)
    ld = log_predictive_density_batch(circuit, X0, np.array([[1.0]]))
    want = -0.5 * (0.0 + math.log(1.5) + math.log(2 * math.pi))
    assert ld[0] == pytest.approx(want, rel=1e-12)
