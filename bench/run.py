"""End-to-end benchmark of momogp on synthetic workloads (see README.md).

    python3 bench/run.py --workload tabular --seed 1 --seconds 54 --trace 0

Writes the workload's input files, then repeats rounds of the whole
user path in this process: set up (read, standardize, build, validate),
train, save, load, batch prediction, moment-matched and exact NLPD,
single-row requests, `momogp predict` and `momogp evaluate`. Rounds
repeat while they fit in ``--seconds``, at least four of them; each
metric is the median over the rounds. Every run then checks the last
round's outputs (checks.py). The last line of standard output is one
JSON object: correct, attempted, failed and the metrics. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one traced pass and
reports the per-layer metrics derived from its spans. ``--workload all``
runs each workload in its own process, one after the other.

Run records and span files go to bench/out/.
"""

import os

# one BLAS thread, set before numpy loads: the benchmark measures the
# program's own work, not BLAS threads contending for two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_ROUNDS = 4
# single-row requests after each operation; with three, the cold first
# request after a large operation is a third of the samples
REQUESTS_PER_GAP = 3

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "save_s": "s",
    "load_s": "s",
    "model_mb": "MB",
    "predict_rows_per_s": "1/s",
    "nlpd_rows_per_s": "1/s",
    "nlpd_exact_rows_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "cli_predict_s": "s",
    "cli_evaluate_s": "s",
    "peak_rss_mb": "MB",
    "test_rmse": "std",
}
PER_LAYER = {
    "data_pipeline.load_csv_s": "s",
    "data_pipeline.standardize_s": "s",
    "circuit.build_s": "s",
    "circuit.validate_s": "s",
    "circuit.nodes": "count",
    "circuit.leaves": "count",
    "circuit.distinct_leaf_problems": "count",
    "circuit.leaf_sharing": "ratio",
    "gp_leaf.fit_calls": "count",
    "gp_leaf.fit_s": "s",
    "gp_leaf.grad_calls": "count",
    "gp_leaf.grad_s": "s",
    "gp_leaf.posterior_calls": "count",
    "gp_leaf.posterior_s": "s",
    "gp_leaf.jittered_fits": "count",
    "training.init_s": "s",
    "training.epoch_s": "s",
    "training.refit_s": "s",
    "training.renormalize_s": "s",
    "training.epochs_run": "count",
    "training.leaf_evals_per_distinct_problem": "ratio",
    "inference.evidence_s": "s",
    "inference.predict_s": "s",
    "inference.predict_self_s": "s",
    "inference.density_mm_s": "s",
    "inference.density_exact_s": "s",
    "inference.moment_passes_per_evaluate": "count",
    "serialize.encode_s": "s",
    "serialize.write_s": "s",
    "serialize.parse_s": "s",
    "serialize.decode_s": "s",
    "serialize.load_refits": "count",
    "cli.predict_self_s": "s",
    "cli.evaluate_self_s": "s",
}


class BenchError(Exception):
    """A benchmark operation whose outcome counts as failed."""


def _import_program():
    """Put the checkout's src/ on the path; refuse to run without it."""
    if not (SRC / "momogp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no momogp sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def calibrate() -> dict:
    """Fixed reference work, timed at the start and the end of each run, so a slow machine shows.

    Not a metric: a pure-Python loop and a 300x300 Cholesky, median of three.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(300, 300))
    spd = a @ a.T + 300.0 * np.eye(300)

    def loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def chol():
        for _ in range(10):
            np.linalg.cholesky(spd)

    out = {}
    for name, fn in (("python_loop_ms", loop), ("cholesky300x10_ms", chol)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = 1e3 * statistics.median(times)
    return out


class Recorder:
    """Times operations, counts attempts and failures, and opens trace phases."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, phase: str, fn, *args, collect: bool = True, **kwargs):
        """Run one operation; returns its result, or None when it failed."""
        from momogp import MomogpError
        import numpy as np

        self.attempted += 1
        if collect:
            gc.collect()
        span = self.tracer.begin(f"phase.{phase}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (BenchError, MomogpError, ValueError, OSError, np.linalg.LinAlgError) as exc:
            self.failed += 1
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                self.tracer.end(span)
        self.samples.setdefault(phase, []).append(elapsed)
        return result


def run_cli(argv: list[str]) -> None:
    """One in-process `momogp` command; its report text is discarded."""
    from momogp import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise BenchError(f"momogp {argv[0]} exited with code {code}")


def setup_once(wl, inputs):
    """Input file on disk to a built, validated, untrained circuit."""
    import momogp as mg
    from momogp import images

    if wl.kind == "image":
        data = images.image_to_dataset(images.read_ppm(inputs.train_path))
    else:
        data = mg.load_csv(inputs.train_path, wl.p)
    work, stats = mg.standardize(data)
    circuit = mg.build(work, wl.structure())
    problems = mg.validate(circuit)
    if problems:
        raise BenchError(f"built circuit failed validation: {problems[0]}")
    return work, stats, circuit


def round_schedule(wl, trace: bool) -> list[str]:
    """Operation order of one round: the whole user path, then extra set-ups.

    Every operation runs once per round, so each metric gets as many
    samples as there are rounds. The traced round has no extra set-ups.
    """
    path = ["setup", "train", "save", "load", "predict", "nlpd", "nlpd_exact", "cli_predict", "cli_evaluate"]
    return path if trace else path + ["setup"] * wl.extra_setups


def distinct_leaf_problems(circuit) -> int:
    """Leaves that fit different GP subproblems: distinct (training rows, output) pairs."""
    return len(
        {
            (node.leaf.scope_output, node.leaf.row_idx.tobytes())
            for _, node in circuit.leaves()
        }
    )


def run_workload(wl, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run of ``wl``; returns the full record (see ``result_line``)."""
    import momogp as mg
    import numpy as np

    from spans import SpanIndex, Tracer
    from workloads import make_inputs

    calibration = {"start": calibrate()}
    tracer = Tracer() if trace else None
    rec = Recorder(tracer)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir)
    try:
        inputs = make_inputs(wl, seed, workdir)
        query = mg.load_csv(inputs.query_xy_path, wl.p)
        model_path = os.path.join(workdir, "model.json")
        pred_csv = os.path.join(workdir, "predictions.csv")
        eval_json = os.path.join(workdir, "evaluation.json")
        if tracer:
            tracer.install()
        try:
            state: dict = {}
            outputs: dict = {}

            def train_fresh():
                work, stats, circuit = state.pop("built")
                scaled = mg.apply_standardization(query, stats)
                state.update(work=work, stats=stats, xq=scaled.x, yq=scaled.y)
                state["n_trees"] = mg.count_induced_trees(circuit)
                state["transforms"] = mg.PipelineTransforms(standardization=stats)
                trained = rec.timed("train", mg.train, circuit, work, wl.training(), threads=1)
                if trained is None:
                    raise SystemExit(f"bench: training failed: {rec.errors[-1]}")
                state["circuit"], state["report"] = trained
                warm = tracer.begin("phase.warmup") if tracer else None
                mg.predict_batch(state["circuit"], state["xq"][:8])
                if tracer:
                    tracer.end(warm)

            def nlpd_exact():
                # mean_nlpd refuses circuits over the documented tree cap (`deep`)
                if state["n_trees"] <= mg.TREE_ENUM_CAP:
                    outputs["nlpd_exact"] = rec.timed(
                        "nlpd_exact", mg.mean_nlpd, state["circuit"], state["xq"], state["yq"],
                        mode="exact_mixture",
                    )

            def setup():
                state["built"] = rec.timed("setup", setup_once, wl, inputs)
                if state["built"] is None:
                    raise SystemExit(f"bench: setup failed: {rec.errors[-1]}")

            ops = {
                "setup": setup,
                "train": train_fresh,
                "save": lambda: rec.timed(
                    "save", mg.save_model, model_path, state["circuit"], state["transforms"],
                    state["work"].x, state["work"].y,
                ),
                "load": lambda: outputs.update(bundle=rec.timed("load", mg.load_model, model_path)),
                "predict": lambda: outputs.update(
                    predict=rec.timed("predict", mg.predict_batch, state["circuit"], state["xq"])
                ),
                "nlpd": lambda: outputs.update(
                    nlpd=rec.timed("nlpd", mg.mean_nlpd, state["circuit"], state["xq"], state["yq"])
                ),
                "nlpd_exact": nlpd_exact,
                "cli_predict": lambda: rec.timed(
                    "cli_predict", run_cli, ["predict", model_path, inputs.query_x_path, "--out", pred_csv]
                ),
                "cli_evaluate": lambda: rec.timed(
                    "cli_evaluate", run_cli,
                    ["evaluate", model_path, inputs.query_xy_path, "--out", eval_json],
                ),
            }
            requests = 0
            rounds = 0
            start = time.perf_counter()
            # another round starts while at least half of an average round fits
            # in --seconds, so a run lasts about --seconds whatever the round length
            while rounds < (1 if trace else MIN_ROUNDS) or (
                not trace
                and (time.perf_counter() - start) * (rounds + 0.5) / rounds <= seconds
            ):
                for op in round_schedule(wl, trace):
                    ops[op]()
                    if "circuit" not in state:
                        continue
                    # single-row requests between operations, so they sample the whole run
                    for _ in range(REQUESTS_PER_GAP):
                        row = requests % state["xq"].shape[0]
                        rec.timed(
                            "request", mg.predict_batch, state["circuit"],
                            state["xq"][row : row + 1], collect=False,
                        )
                        requests += 1
                rounds += 1
            circuit, report = state["circuit"], state["report"]
            work, stats, xq, yq = state["work"], state["stats"], state["xq"], state["yq"]
            n_trees = state["n_trees"]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            model_mb = os.path.getsize(model_path) / 1e6
        finally:
            if tracer:
                tracer.uninstall()

        expected = ["bundle", "predict", "nlpd"] + (["nlpd_exact"] if n_trees <= mg.TREE_ENUM_CAP else [])
        missing = [k for k in expected if outputs.get(k) is None]
        if missing or not os.path.exists(pred_csv) or not os.path.exists(eval_json):
            raise SystemExit(f"bench: no output to check from {missing or 'the CLI'}: {rec.errors}")
        means, covs = outputs["predict"]
        rmse = float(np.mean(np.sqrt(np.mean((yq - means) ** 2, axis=0))))
        found = run_checks(wl, circuit, report, work, stats, xq, yq, n_trees, outputs, pred_csv, eval_json, rmse)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration["end"] = calibrate()

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "calibration": calibration,
        "rounds": rounds,
        "induced_trees": n_trees,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "checks": [vars(c) for c in found],
        "correct": all(c.ok for c in found),
        "samples": rec.samples,
    }
    if not trace:
        record["metrics"] = end_to_end_metrics(rec.samples, xq.shape[0], model_mb, peak_rss_mb, rmse)
        return record

    counts = {
        "nodes": len(circuit.nodes),
        "leaves": len(circuit.leaf_ids()),
        "distinct": distinct_leaf_problems(circuit),
    }
    index = SpanIndex(tracer.spans)
    record["metrics"] = layer_metrics(index, tracer.jittered_fits, report, counts)
    # on the image workload only; kept out of the result line, where a
    # per-layer time would read a constant zero on the other workloads
    record["image_layers"] = {
        "images.read_ppm_s": index.total("images.read_ppm", "setup"),
        "images.image_to_dataset_s": index.total("images.image_to_dataset", "setup"),
    }
    record["overhead"] = tracing_overhead(index.phase_seconds(), out_dir / f"{wl.name}-seed{seed}.json")
    spans_path = out_dir / f"{wl.name}-seed{seed}-spans.json"
    tracer.write(spans_path, {"workload": wl.name, "seed": seed, "overhead": record["overhead"]})
    record["spans_file"] = str(spans_path)
    return record


def run_checks(wl, circuit, report, work, stats, xq, yq, n_trees, outputs, pred_csv, eval_json, rmse):
    """Every output check of one run; outside the timed phases."""
    import momogp as mg
    import numpy as np

    import checks

    means, covs = outputs["predict"]
    nlpd = outputs["nlpd"]
    found = [checks.check_leaves(circuit, xq[:5])]
    evidence = mg.compute_evidence(circuit)
    # the program's exact log density of every query row; on `deep`, over the
    # documented tree cap, through the same recursion with the cap lifted
    exact = mg.log_predictive_density_batch(
        circuit, xq, yq, mode="exact_mixture", tree_cap=max(n_trees, mg.TREE_ENUM_CAP)
    )
    few = slice(0, 6)
    references = [("bottom_up_recursion", few, checks.recursion_reference(circuit, xq[few], yq[few]))]
    tree = None
    if n_trees <= checks.ENUMERATION_LIMIT:
        tree = checks.tree_reference(circuit, xq, yq)
        references.append(("tree_enumeration", slice(None), tree))
    for name, rows, reference in references:
        found.append(
            checks.check_against_reference(
                name, reference, evidence[circuit.root], report.final_root_log_evidence,
                means[rows], covs[rows], exact[rows],
            )
        )
    if "nlpd_exact" in outputs:
        # against the enumeration where there is one, else the checked densities
        density = tree["log_density"] if tree is not None else exact
        found.append(checks.check_exact_nlpd(outputs["nlpd_exact"], density))
    found.append(checks.check_nlpd(yq, means, covs, nlpd))
    found.append(checks.check_weights_and_covariances(circuit, covs))
    found.append(checks.check_mll_improved(report.initial_total_mll, report.final_total_mll))
    found.append(checks.check_beats_trivial(work.y, yq, rmse, nlpd))
    loaded = outputs["bundle"].circuit
    found.append(
        checks.check_bitwise(
            (means, covs, evidence[circuit.root]),
            (*mg.predict_batch(loaded, xq), mg.compute_evidence(loaded)[loaded.root]),
        )
    )
    cli_means, cli_covs = checks.read_prediction_csv(pred_csv, wl.p)
    lib_eval = {
        "n_test": xq.shape[0],
        "rmse": rmse,
        "mae": float(np.mean(np.abs(yq - means))),
        "mean_nlpd": nlpd,
    }
    found.append(
        checks.check_cli(
            cli_means,
            cli_covs,
            checks.read_eval_json(eval_json),
            means * stats.y_std + stats.y_mean,
            covs * np.outer(stats.y_std, stats.y_std),
            lib_eval,
        )
    )
    return found


def end_to_end_metrics(samples: dict, n_query: int, model_mb: float, peak_rss_mb: float, rmse: float) -> dict:
    import numpy as np

    med = {phase: statistics.median(values) for phase, values in samples.items()}
    requests = np.asarray(samples["request"])
    values = {
        "setup_s": med["setup"],
        "train_s": med["train"],
        "save_s": med["save"],
        "load_s": med["load"],
        "model_mb": model_mb,
        "predict_rows_per_s": n_query / med["predict"],
        "nlpd_rows_per_s": n_query / med["nlpd"],
        # absent on `deep`, whose circuit exceeds the tree cap
        "nlpd_exact_rows_per_s": n_query / med["nlpd_exact"] if "nlpd_exact" in med else None,
        "request_p50_ms": 1e3 * float(np.percentile(requests, 50)),
        "request_p90_ms": 1e3 * float(np.percentile(requests, 90)),
        "cli_predict_s": med["cli_predict"],
        "cli_evaluate_s": med["cli_evaluate"],
        "peak_rss_mb": peak_rss_mb,
        "test_rmse": rmse,
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in END_TO_END.items()
        if values[name] is not None
    }


def layer_metrics(index, jittered_fits: int, report, counts: dict) -> dict:
    """Per-layer metrics of one traced pass (totals over the pass unless a phase is named)."""
    wall = report.wall_time
    values = {
        "data_pipeline.load_csv_s": index.total("data_pipeline.load_csv"),
        "data_pipeline.standardize_s": index.total("data_pipeline.standardize", "setup"),
        "circuit.build_s": index.total("circuit.build", "setup"),
        "circuit.validate_s": index.total("circuit.validate", "setup"),
        "circuit.nodes": counts["nodes"],
        "circuit.leaves": counts["leaves"],
        "circuit.distinct_leaf_problems": counts["distinct"],
        "circuit.leaf_sharing": counts["leaves"] / counts["distinct"],
        "gp_leaf.fit_calls": index.count("gp_leaf.fit"),
        "gp_leaf.fit_s": index.total("gp_leaf.fit"),
        "gp_leaf.grad_calls": index.count("gp_leaf.mll_gradient"),
        "gp_leaf.grad_s": index.total("gp_leaf.mll_gradient"),
        "gp_leaf.posterior_calls": index.count("gp_leaf.posterior_batch"),
        "gp_leaf.posterior_s": index.total("gp_leaf.posterior_batch"),
        "gp_leaf.jittered_fits": jittered_fits,
        "training.init_s": wall["init"],
        "training.epoch_s": wall["optimize"] / max(report.epochs_run, 1),
        "training.refit_s": wall["refit"],
        "training.renormalize_s": wall["renormalize"],
        "training.epochs_run": report.epochs_run,
        "training.leaf_evals_per_distinct_problem": index.count("gp_leaf.fit", "train") / counts["distinct"],
        "inference.evidence_s": index.total("inference.compute_evidence"),
        "inference.predict_s": index.total("inference.predict_batch", "predict"),
        "inference.predict_self_s": index.self_time("inference.predict_batch", "predict"),
        "inference.density_mm_s": index.total("inference.log_predictive_density_batch", "nlpd"),
        "inference.density_exact_s": index.total("inference.log_predictive_density_batch", "nlpd_exact"),
        "inference.moment_passes_per_evaluate": index.count("inference.predict_batch", "cli_evaluate")
        + index.count("inference.log_predictive_density_batch", "cli_evaluate"),
        "serialize.encode_s": index.total("serialize.model_to_dict", "save"),
        "serialize.write_s": index.total("serialize.write_json_atomic", "save"),
        "serialize.parse_s": index.self_time("serialize.load_model", "load"),
        "serialize.decode_s": index.self_time("serialize.model_from_dict", "load"),
        "serialize.load_refits": index.count("gp_leaf.fit", "load"),
        "cli.predict_self_s": index.minus_children(
            "cli.cmd_predict", "cli_predict",
            {"serialize.load_model", "data_pipeline.load_csv", "inference.predict_batch"},
        ),
        "cli.evaluate_self_s": index.minus_children(
            "cli.cmd_evaluate", "cli_evaluate",
            {"serialize.load_model", "data_pipeline.load_csv", "inference.predict_batch", "metrics.mean_nlpd"},
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def tracing_overhead(traced: dict, untraced_record: Path) -> dict:
    """Traced phase time over the untraced run's first-round time, minus one.

    The traced round is the first round of its process, so it is compared
    with the first round of the untraced run of the same workload and seed,
    which starts from the same cold state.
    """
    if not untraced_record.exists():
        return {}
    with open(untraced_record) as fh:
        samples = json.load(fh)["samples"]
    return {
        phase: traced[phase] / samples[phase][0] - 1.0
        for phase in traced
        if phase in samples and phase != "request"
    }


def result_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def summarize(record: dict) -> str:
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
        f"{record['rounds']} serving rounds, {record['attempted']} operations attempted, "
        f"{record['failed']} failed",
        "calibration (not a metric), start and end of the run: "
        + ", ".join(
            f"{k} {v:.2f} / {record['calibration']['end'][k]:.2f}"
            for k, v in record["calibration"]["start"].items()
        ),
    ]
    if not record["trace"]:
        lines.append(f"  request samples: {len(record['samples'].get('request', []))}")
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    for check in record["checks"]:
        lines.append(f"  [{'PASS' if check['ok'] else 'FAIL'}] {check['name']}: {check['detail']}")
    for error in record["errors"]:
        lines.append(f"  failed operation: {error}")
    for name, value in record.get("image_layers", {}).items():
        lines.append(f"  {name:44s} {value:>14.6g} s (span file only)")
    if record.get("overhead"):
        lines.append(
            "  tracing overhead vs the untraced run's first round: "
            + ", ".join(f"{k} {100 * v:+.1f}%" for k, v in record["overhead"].items())
        )
    if record.get("spans_file"):
        lines.append(f"  spans written to {record['spans_file']}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Each workload in its own process; prints their results and a combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tabular", "deep", "image", "all"))
    parser.add_argument("--seed", type=int, default=0, help="draws the workload's input files")
    parser.add_argument("--seconds", type=float, default=54.0, help="time budget of the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    suffix = "-trace" if args.trace else ""
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(record, fh)
    print(summarize(record), file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
