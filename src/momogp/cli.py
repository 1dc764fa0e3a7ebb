"""Command line interface.

Subcommands: train, evaluate, predict, upsample. A run is configured
by the command's defaults, then an optional JSON file (sections
"structure", "training", "pipeline") that overrides the keys it names,
then command line flags; train and upsample echo the merged effective
config so runs are reproducible, and train stores it in the model file.

Exit codes: 0 success, 2 invalid input/config, 3 I/O failure,
4 numerical failure. Failures print
"ERROR <category>: <detail>" as the first stderr line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__
from .circuit import StructureConfig, _check_fields, build, validate
from .data_pipeline import (
    Dataset,
    PipelineTransforms,
    apply_pca,
    fit_pca,
    load_csv,
    split,
    standardize,
)
from .errors import MomogpError, NotFittedError, NumericalError, SchemaError
from .images import (
    bilinear_upsample,
    dataset_to_image,
    grid_coordinates,
    image_rmse,
    image_to_dataset,
    nearest_upsample,
    read_ppm,
    write_ppm,
)
from .inference import NLPD_MODES, predict_batch
from .metrics import EvalResult, mae, mean_nlpd, per_output_rmse, rmse
from .serialize import (
    dumps_canonical,
    load_model,
    save_model,
    write_json_atomic,
    write_text_atomic,
)
from .training import TrainConfig, train

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

@dataclass
class RunConfig:
    """Everything a run needs: structure, training and pipeline settings."""

    structure: StructureConfig = field(default_factory=StructureConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    n_outputs: Optional[int] = field(default=None, metadata={"ge": 1})
    standardize: bool = True
    pca_dims: Optional[int] = field(default=None, metadata={"ge": 1})
    test_fraction: float = field(default=0.0, metadata={"ge": 0.0, "lt": 1.0})
    split_seed: int = field(default=0, metadata={"ge": 0})
    nlpd_mode: str = field(default="moment_matched", metadata={"choices": NLPD_MODES + ("both",)})

    def validate(self):
        for section in (self.structure, self.training, self):
            _check_fields(section)

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "structure": asdict(self.structure),
            "training": asdict(self.training),
            "pipeline": {key: getattr(self, key) for key in _section_keys(self)},
        }


_SECTIONS = ("structure", "training", "pipeline")


def _section(cfg: RunConfig, name: str):
    """The object that holds a section's keys: the pipeline keys are RunConfig's own."""
    return cfg if name == "pipeline" else getattr(cfg, name)


def _section_keys(target) -> list[str]:
    """The settable keys of a config section: the dataclass fields, minus nested sections."""
    return [f.name for f in fields(target) if f.name not in _SECTIONS]


def _apply_section(target, section, label: str):
    if not isinstance(section, dict):
        raise SchemaError(f"config section {label!r} must be an object")
    allowed = _section_keys(target)
    for key, value in section.items():
        if key not in allowed:
            raise SchemaError(f"unknown config key {label}.{key}")
        setattr(target, key, value)


def load_run_config(
    path: Optional[str], cfg: RunConfig, command: str = "", unread: tuple[str, ...] = ()
) -> RunConfig:
    """Apply the config file at ``path``, if any, over the defaults ``cfg``.

    ``unread`` names pipeline keys that ``command`` never reads; a file
    that sets one is refused rather than echoed as if it took effect.
    """
    if path is None:
        return cfg
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: config root must be an object")
    version = obj.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported config schema_version {version!r}")
    for section in obj:
        if section not in ("schema_version",) + _SECTIONS:
            raise SchemaError(f"{path}: unknown config section {section!r}")
    for section in _SECTIONS:
        _apply_section(_section(cfg, section), obj.get(section, {}), section)
    for key in unread:
        if key in obj.get("pipeline", {}):
            raise SchemaError(f"{command} does not read pipeline.{key}")
    return cfg


def _merge_overrides(cfg: RunConfig, args) -> RunConfig:
    """Apply the flags given: each flag's dest is the "section.key" it sets,
    except --seed, which sets all three seeds."""
    overrides = dict(vars(args))
    seed = overrides.pop("seed", None)
    if seed is not None:
        overrides.update({"structure.rng_seed": seed, "training.rng_seed": seed,
                          "pipeline.split_seed": seed})
    for dest, value in overrides.items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            setattr(_section(cfg, section), key, value)
    cfg.validate()
    return cfg


def _echo_config(cfg: RunConfig):
    print("effective config:")
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))


def _fit_pipeline(data: Dataset, cfg: RunConfig) -> tuple[Dataset, PipelineTransforms]:
    transforms = PipelineTransforms()
    work = data
    if cfg.standardize:
        work, stats = standardize(work)
        transforms.standardization = stats
    if cfg.pca_dims is not None:
        if cfg.pca_dims > work.n_dims:
            raise SchemaError(
                f"pca_dims {cfg.pca_dims} exceeds the {work.n_dims} covariate columns"
            )
        transforms.pca = fit_pca(work.x, cfg.pca_dims)
        work = Dataset(apply_pca(work.x, transforms.pca), work.y, work.column_names)
    return work, transforms


def _fit_and_train(data: Dataset, cfg: RunConfig):
    """Fit the pipeline, build and validate the circuit, echo the run and train it."""
    work, transforms = _fit_pipeline(data, cfg)
    circuit = build(work, cfg.structure)
    problems = validate(circuit)
    if problems:
        raise NumericalError(f"built circuit failed validation: {problems[0]}")
    _echo_config(cfg)
    print(f"structure: {json.dumps(circuit.describe(), sort_keys=True)}")
    circuit, report = train(circuit, work, cfg.training)
    print(f"training report: {json.dumps(report.to_dict(), sort_keys=True)}")
    return work, transforms, circuit, report


def _write_csv_atomic(path, header: list[str], rows: np.ndarray):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    # tolist gives python floats, whose str is their shortest repr
    writer.writerows(rows.tolist())
    write_text_atomic(path, buffer.getvalue())


def cmd_train(args) -> int:
    cfg = _merge_overrides(load_run_config(args.config, RunConfig()), args)
    if cfg.n_outputs is None:
        raise SchemaError("n_outputs is required (flag --n-outputs or pipeline.n_outputs)")
    data = load_csv(args.train_csv, cfg.n_outputs)
    holdout = None
    if cfg.test_fraction > 0.0:
        data, holdout = split(data, cfg.test_fraction, cfg.split_seed)
    work, transforms, circuit, report = _fit_and_train(data, cfg)
    extras = {
        "effective_config": cfg.to_dict(),
        "root_log_evidence": report.final_root_log_evidence,
    }
    save_model(args.out, circuit, transforms, work.x, work.y, extras)
    print(f"wrote model to {args.out}")
    if holdout is not None:
        holdout_path = args.out + ".test.csv"
        names = holdout.column_names or [
            f"x_{i}" for i in range(holdout.n_dims)
        ] + [f"y_{i}" for i in range(holdout.n_outputs)]
        _write_csv_atomic(
            holdout_path, names, np.hstack([holdout.x, holdout.y])
        )
        print(f"wrote held-out rows to {holdout_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _merge_overrides(load_run_config(args.config, RunConfig()), args)
    bundle = load_model(args.model)
    circuit = bundle.circuit
    data = load_csv(args.test_csv, circuit.n_outputs)
    x = bundle.transforms.transform_x(data.x)
    y_model_space = bundle.transforms.transform_y(data.y)
    std = bundle.transforms.standardization
    unstandardize = args.unstandardized_metrics and std is not None
    # densities pick up the log-Jacobian of the linear rescaling
    log_jacobian = float(np.sum(np.log(std.y_std))) if unstandardize else 0.0
    modes = NLPD_MODES if cfg.nlpd_mode == "both" else (cfg.nlpd_mode,)
    nlpd = {m: mean_nlpd(circuit, x, y_model_space, mode=m) + log_jacobian for m in modes}
    means, _ = predict_batch(circuit, x)
    if unstandardize:
        y_ref, means_ref = data.y, bundle.transforms.inverse_y_mean(means)
    else:
        y_ref, means_ref = y_model_space, means
    result = EvalResult(
        n_test=data.n_rows,
        rmse=rmse(y_ref, means_ref),
        mae=mae(y_ref, means_ref),
        mean_nlpd=nlpd[modes[0]],
        nlpd_mode=modes[0],
        per_output_rmse=[float(v) for v in per_output_rmse(y_ref, means_ref)],
        mean_nlpd_exact=nlpd["exact_mixture"] if len(modes) > 1 else None,
    )
    print(result.format_text())
    out_path = args.out or (args.model + ".eval.json")
    write_json_atomic(out_path, result.to_dict())
    print(f"wrote evaluation to {out_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    bundle = load_model(args.model)
    circuit = bundle.circuit
    data = load_csv(args.input_csv, 0)
    x = bundle.transforms.transform_x(data.x)
    means, covs = predict_batch(circuit, x, include_noise=not args.latent)
    means = bundle.transforms.inverse_y_mean(means)
    covs = bundle.transforms.inverse_y_cov(covs)
    iu, ju = np.triu_indices(circuit.n_outputs)
    header = [f"mean_{i}" for i in range(circuit.n_outputs)]
    header += [f"cov_{i}_{j}" for i, j in zip(iu, ju)]
    rows = np.hstack([means, covs[:, iu, ju]])
    _write_csv_atomic(args.out, header, rows)
    print(f"wrote {data.n_rows} predictions to {args.out}")
    return EXIT_OK


# upsample takes its outputs from the image and scores no holdout or density
_UPSAMPLE_UNREAD = ("n_outputs", "test_fraction", "split_seed", "nlpd_mode")


def cmd_upsample(args) -> int:
    defaults = RunConfig(structure=StructureConfig(leaf_threshold=256))
    cfg = load_run_config(args.config, defaults, "upsample", _UPSAMPLE_UNREAD)
    cfg = _merge_overrides(cfg, args)
    if args.factor < 2:
        raise SchemaError("--factor must be >= 2")
    img = read_ppm(args.in_ppm)
    _, transforms, circuit, _ = _fit_and_train(image_to_dataset(img), cfg)

    height, width = img.shape[:2]
    big_h, big_w = height * args.factor, width * args.factor
    target_x = transforms.transform_x(grid_coordinates(big_h, big_w))
    means, _ = predict_batch(circuit, target_x)
    means = transforms.inverse_y_mean(means)
    model_img = dataset_to_image(means, big_h, big_w)
    write_ppm(args.out, model_img)

    stem = args.out[:-4] if args.out.endswith(".ppm") else args.out
    near_img = nearest_upsample(img, args.factor)
    bilin_img = bilinear_upsample(img, args.factor)
    write_ppm(stem + ".nearest.ppm", near_img)
    write_ppm(stem + ".bilinear.ppm", bilin_img)
    print(f"wrote {args.out}, {stem}.nearest.ppm, {stem}.bilinear.ppm")

    if args.ground_truth:
        truth = read_ppm(args.ground_truth)
        if truth.shape != model_img.shape:
            raise SchemaError(
                f"ground truth is {truth.shape[1]}x{truth.shape[0]}, "
                f"expected {big_w}x{big_h}"
            )
        print(f"rmse_model={image_rmse(truth, model_img):.6f}")
        print(f"rmse_bilinear={image_rmse(truth, bilin_img):.6f}")
        print(f"rmse_nearest={image_rmse(truth, near_img):.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momogp",
        description="multi-output mixture-of-GP circuits: train, evaluate, predict, upsample",
    )
    parser.add_argument("--version", action="version", version=f"momogp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flag(p):
        p.add_argument("--config", help="JSON config file")

    def training_flags(p):
        config_flag(p)
        p.add_argument("--seed", type=int, help="override all RNG seeds")

    p_train = sub.add_parser("train", help="fit a model from a CSV")
    training_flags(p_train)
    p_train.add_argument("train_csv")
    p_train.add_argument("--out", required=True, help="model JSON output path")
    p_train.add_argument("--n-outputs", type=int, dest="pipeline.n_outputs", metavar="N_OUTPUTS")
    p_train.add_argument(
        "--leaf-threshold", type=int, dest="structure.leaf_threshold", metavar="LEAF_THRESHOLD"
    )
    p_train.add_argument("--max-epochs", type=int, dest="training.max_epochs", metavar="MAX_EPOCHS")
    p_train.add_argument(
        "--test-fraction", type=float, dest="pipeline.test_fraction", metavar="TEST_FRACTION",
        help="hold out this fraction (written to <out>.test.csv)",
    )
    p_train.add_argument("--pca-dims", type=int, dest="pipeline.pca_dims", metavar="PCA_DIMS")
    p_train.add_argument(
        "--no-standardize", action="store_false", default=None, dest="pipeline.standardize",
        help="skip column standardization",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a model on a test CSV")
    config_flag(p_eval)
    p_eval.add_argument("model")
    p_eval.add_argument("test_csv")
    p_eval.add_argument("--nlpd-mode", dest="pipeline.nlpd_mode", choices=NLPD_MODES + ("both",))
    p_eval.add_argument("--out", help="evaluation JSON path (default <model>.eval.json)")
    p_eval.add_argument(
        "--unstandardized-metrics",
        action="store_true",
        help="report metrics in original target units",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser("predict", help="predictive moments for covariate rows")
    p_pred.add_argument("model")
    p_pred.add_argument("input_csv")
    p_pred.add_argument("--out", required=True, help="predictions CSV path")
    p_pred.add_argument(
        "--latent",
        action="store_true",
        help="exclude observation noise from the variances",
    )
    p_pred.set_defaults(func=cmd_predict)

    p_up = sub.add_parser("upsample", help="super-resolve a PPM image")
    training_flags(p_up)
    p_up.add_argument("in_ppm")
    p_up.add_argument("--factor", type=int, default=2)
    p_up.add_argument("--out", required=True, help="output PPM path")
    p_up.add_argument("--ground-truth", help="high-res PPM to score against")
    p_up.add_argument("--max-epochs", type=int, dest="training.max_epochs", metavar="MAX_EPOCHS")
    p_up.add_argument(
        "--leaf-threshold", type=int, dest="structure.leaf_threshold", metavar="LEAF_THRESHOLD"
    )
    p_up.set_defaults(func=cmd_upsample)

    return parser


def _fail(category: str, exc: BaseException, code: int) -> int:
    print(f"ERROR {category}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, NotFittedError, ValueError) as exc:
        return _fail("invalid", exc, EXIT_INVALID)
    except NumericalError as exc:
        return _fail("numerical", exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)
    except MomogpError as exc:
        return _fail("invalid", exc, EXIT_INVALID)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
