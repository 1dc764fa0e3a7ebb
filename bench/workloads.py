"""Workload definitions and seeded input generation.

Each workload is a fixed shape (rows, dimensions, outputs, circuit
structure, epoch budget) with fixed structure and training seeds. The
benchmark seed draws only the input files; the program never sees it.

Table workloads draw their rows from a pool made by
``synth_multioutput`` with a fixed per-workload generator seed, so the
regression function is the same for every benchmark seed and only the
sampled rows change. The image workload adds seeded pixel noise to its
training image. Accuracy then varies little from seed to seed, which
keeps ``test_rmse`` comparable between runs.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from momogp import StructureConfig, TrainConfig, synth_multioutput
from momogp.images import box_downsample, grid_coordinates, synthetic_image, write_ppm

# structure and training seed of every workload; a different model seed
# moves test_rmse far more than a different input sample does
MODEL_SEED = 0
# std of the seeded noise on the image workload's training pixels (0..255 scale)
PIXEL_NOISE = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "table" (CSV input) or "image" (PPM input)
    d: int
    p: int
    k_sum: int
    leaf_threshold: int
    epochs: int
    n_train: int = 0  # table only: training rows
    n_query: int = 0  # table only: query rows
    image_size: int = 0  # image only: full-resolution side; training is half that
    init_gamma_rate: float = 3.0  # initial lengthscales ~ Gamma(2, rate); 3.0 is the default
    pool_seed: int = 0  # generator seed of the table pool
    extra_setups: int = 1  # set-ups at the end of each round; setup_s is the median of all

    def structure(self) -> StructureConfig:
        return StructureConfig(
            k_sum=self.k_sum,
            k_prod_x=2,
            k_prod_y=2,
            leaf_threshold=self.leaf_threshold,
            rng_seed=MODEL_SEED,
        )

    def training(self) -> TrainConfig:
        return TrainConfig(
            max_epochs=self.epochs, rng_seed=MODEL_SEED, init_gamma_rate=self.init_gamma_rate
        )


WORKLOADS = {
    # few large exact experts: leaf kernel work dominates (Parkinsons-shaped);
    # initial lengthscales around 4 suit 16 standardized dimensions
    "tabular": Workload(
        "tabular", "table", d=16, p=2, k_sum=2, leaf_threshold=500, epochs=3,
        n_train=1029, n_query=2000, init_gamma_rate=0.5, pool_seed=1029, extra_setups=2,
    ),
    # many tiny, mostly duplicated leaves: per-node Python work dominates
    "deep": Workload(
        "deep", "table", d=2, p=1, k_sum=3, leaf_threshold=8, epochs=3,
        n_train=100, n_query=300, pool_seed=250,
    ),
    # three outputs, 24x24 training pixels and 48x48 queries: serving dominates
    "image": Workload(
        "image", "image", d=2, p=3, k_sum=2, leaf_threshold=100, epochs=3, image_size=48,
    ),
}

# the workloads in BENCHMARK.json; `deep` is run by hand (see README.md)
BENCHMARKED = ("tabular", "image")

# a few seconds per workload (`deep` about 15 s); used by the benchmark's own tests
SMOKE = {
    "tabular": replace(
        WORKLOADS["tabular"], n_train=260, n_query=120, d=4, leaf_threshold=130,
        epochs=2, extra_setups=0,
    ),
    # full size, so the circuit exceeds the tree cap; with fewer query rows
    # the trained model does not reliably beat the trivial predictor's NLPD
    "deep": replace(WORKLOADS["deep"], extra_setups=0),
    "image": replace(
        WORKLOADS["image"], image_size=32, leaf_threshold=40, epochs=2, extra_setups=0,
    ),
}


@dataclass
class Inputs:
    """Paths of the generated files."""

    train_path: str
    query_x_path: str
    query_xy_path: str


def _write_csv(path: str, names: list[str], rows: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def make_inputs(wl: Workload, seed: int, directory: str) -> Inputs:
    """Write the training file and the two query CSVs for ``seed``."""
    if wl.kind == "table":
        n_pool = 2 * (wl.n_train + wl.n_query)
        pool = synth_multioutput(n_pool, wl.d, wl.p, seed=wl.pool_seed)
        order = np.random.default_rng(seed).permutation(n_pool)
        train_idx = order[: wl.n_train]
        query_idx = order[wl.n_train : wl.n_train + wl.n_query]
        x_names = [f"x_{i}" for i in range(wl.d)]
        y_names = [f"y_{i}" for i in range(wl.p)]
        train_path = os.path.join(directory, "train.csv")
        _write_csv(
            train_path,
            x_names + y_names,
            np.hstack([pool.x[train_idx], pool.y[train_idx]]),
        )
        query_x, query_y = pool.x[query_idx], pool.y[query_idx]
    else:
        full = synthetic_image(wl.image_size)
        small = box_downsample(full, 2)
        noise = np.random.default_rng(seed).normal(0.0, PIXEL_NOISE, size=small.shape)
        train_path = os.path.join(directory, "train.ppm")
        write_ppm(train_path, small + noise)
        x_names, y_names = ["row", "col"], ["red", "green", "blue"]
        query_x = grid_coordinates(wl.image_size, wl.image_size)
        query_y = full.reshape(-1, 3).astype(float)
    query_x_path = os.path.join(directory, "query_x.csv")
    query_xy_path = os.path.join(directory, "query_xy.csv")
    _write_csv(query_x_path, x_names, query_x)
    _write_csv(query_xy_path, x_names + y_names, np.hstack([query_x, query_y]))
    return Inputs(train_path, query_x_path, query_xy_path)
