"""End-to-end command line tests (in-process)."""

import argparse
import csv
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

import momogp.cli as cli
import oracles
from momogp.circuit import ProductYNode, StructureConfig, count_induced_trees
from momogp.data_pipeline import load_csv, synth_multioutput
from momogp.errors import NumericalError
from momogp.images import read_ppm, synthetic_image, write_ppm
from momogp.inference import predict_batch
from momogp.metrics import mean_nlpd
from momogp.serialize import load_model, model_from_dict, save_model
from momogp.training import TrainConfig


def write_train_csv(path, n=60, seed=0, p=2):
    data = synth_multioutput(n, 2, p, seed=seed)
    header = [f"x_{i}" for i in range(data.n_dims)] + [f"y_{i}" for i in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for xr, yr in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in xr] + [repr(float(v)) for v in yr])
    return path


def write_config(path, **overrides):
    cfg = {
        "structure": {"leaf_threshold": 15, "rng_seed": 1},
        "training": {"max_epochs": 2, "rng_seed": 1},
        "pipeline": {"n_outputs": 2},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def trained_model(tmp_path):
    # three cells per covariate split, so a split has two edges to corrupt
    csv_path = write_train_csv(tmp_path / "train.csv")
    config = write_config(tmp_path / "cfg.json", structure={"k_prod_x": 3})
    model = tmp_path / "model.json"
    assert run(["train", csv_path, "--config", config, "--out", model]) == 0
    return model, csv_path, config


# ------------------------------------------------------------------ happy path


def test_train_evaluate_predict_cycle(tmp_path, trained_model, capsys):
    model, csv_path, config = trained_model
    capsys.readouterr()
    assert run(["evaluate", model, csv_path, "--config", config]) == 0
    out = capsys.readouterr().out
    assert "rmse=" in out and "mean_nlpd=" in out
    eval_doc = json.loads((tmp_path / "model.json.eval.json").read_text())
    assert eval_doc["n_test"] == 60
    assert np.isfinite(eval_doc["rmse"]) and np.isfinite(eval_doc["mean_nlpd"])

    # predictions from a covariates-only file
    covars = tmp_path / "q.csv"
    with open(csv_path) as fh, open(covars, "w", newline="") as out_fh:
        reader = csv.reader(fh)
        writer = csv.writer(out_fh)
        for row in reader:
            writer.writerow(row[:2])
    pred_path = tmp_path / "pred.csv"
    assert run(["predict", model, covars, "--out", pred_path]) == 0
    with open(pred_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mean_0", "mean_1", "cov_0_0", "cov_0_1", "cov_1_1"]
    assert len(rows) == 61
    values = np.asarray(rows[1:], dtype=float)
    assert np.all(np.isfinite(values))
    assert np.all(values[:, 2] > 0) and np.all(values[:, 4] > 0)

    # latent variances can only shrink when noise is removed
    latent_path = tmp_path / "pred_latent.csv"
    assert run(["predict", model, covars, "--out", latent_path, "--latent"]) == 0
    with open(latent_path) as fh:
        latent = np.asarray(list(csv.reader(fh))[1:], dtype=float)
    assert np.all(latent[:, 2] <= values[:, 2] + 1e-12)


def test_pca_model_evaluates_and_predicts(tmp_path, capsys):
    csv_path = write_train_csv(tmp_path / "train.csv")
    config = write_config(tmp_path / "cfg.json")
    model = tmp_path / "m.json"
    assert run(["train", csv_path, "--config", config, "--out", model, "--pca-dims", "1"]) == 0
    bundle = load_model(model)
    assert bundle.transforms.pca is not None and bundle.circuit.n_dims == 1
    out = tmp_path / "eval.json"
    assert run(["evaluate", model, csv_path, "--out", out]) == 0
    assert json.loads(out.read_text())["n_test"] == 60
    pred = tmp_path / "p.csv"
    assert run(["predict", model, write_covariates(tmp_path, csv_path), "--out", pred]) == 0
    values = np.asarray(list(csv.reader(pred.open()))[1:], dtype=float)
    assert values.shape == (60, 5) and np.all(np.isfinite(values))


def test_unstandardized_model_predicts_in_model_units(tmp_path):
    csv_path = write_train_csv(tmp_path / "train.csv")
    config = write_config(tmp_path / "cfg.json")
    model = tmp_path / "m.json"
    assert run(["train", csv_path, "--config", config, "--out", model, "--no-standardize"]) == 0
    bundle = load_model(model)
    assert bundle.transforms.standardization is None
    covars = write_covariates(tmp_path, csv_path)
    pred = tmp_path / "p.csv"
    assert run(["predict", model, covars, "--out", pred]) == 0
    # no transform either way: the served means are the circuit's own
    means, _ = predict_batch(bundle.circuit, load_csv(covars, 0).x)
    served = np.asarray(list(csv.reader(pred.open()))[1:], dtype=float)[:, :2]
    assert np.array_equal(served, means)


def test_model_file_contents(trained_model):
    model, _, _ = trained_model
    doc = json.loads(model.read_text())
    assert doc["kind"] == "momogp_model"
    effective = doc["extras"]["effective_config"]
    assert effective["pipeline"]["n_outputs"] == 2
    assert effective["structure"]["leaf_threshold"] == 15
    assert np.isfinite(doc["extras"]["root_log_evidence"])


def test_same_seed_runs_are_byte_identical(tmp_path):
    csv_path = write_train_csv(tmp_path / "train.csv")
    config = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["train", csv_path, "--config", config, "--out", a]) == 0
    assert run(["train", csv_path, "--config", config, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_all_seeds(tmp_path, capsys):
    csv_path = write_train_csv(tmp_path / "train.csv")
    config = write_config(tmp_path / "cfg.json")
    model = tmp_path / "m.json"
    assert run(["train", csv_path, "--config", config, "--out", model, "--seed", 42]) == 0
    echoed = capsys.readouterr().out
    effective = json.loads(echoed.split("effective config:\n")[1].split("structure:")[0])
    assert effective["structure"]["rng_seed"] == 42
    assert effective["training"]["rng_seed"] == 42
    assert effective["pipeline"]["split_seed"] == 42


def test_holdout_split_written_and_usable(tmp_path):
    csv_path = write_train_csv(tmp_path / "train.csv", n=80)
    config = write_config(tmp_path / "cfg.json")
    model = tmp_path / "m.json"
    assert run(
        ["train", csv_path, "--config", config, "--out", model,
         "--test-fraction", "0.25"]
    ) == 0
    holdout = tmp_path / "m.json.test.csv"
    assert holdout.exists()
    with open(holdout) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21  # header + floor(80 * 0.25)
    assert run(["evaluate", model, holdout, "--config", config]) == 0


def test_sumgp_structure_flag(tmp_path):
    # the ablation without covariate splits is k_prod_x = 1
    csv_path = write_train_csv(tmp_path / "train.csv", n=40)
    config = write_config(tmp_path / "cfg.json", structure={"k_prod_x": 1})
    model = tmp_path / "m.json"
    assert run(["train", csv_path, "--config", config, "--out", model]) == 0
    doc = json.loads(model.read_text())
    assert doc["structure_config"]["k_prod_x"] == 1
    assert all(node["type"] != "product_x" for node in doc["nodes"])
    leaves = model_from_dict(doc).circuit.leaves()
    assert all(node.leaf.n_train == 40 for _, node in leaves)


def test_evaluate_both_nlpd_modes(tmp_path, trained_model):
    model, csv_path, config = trained_model
    out = tmp_path / "eval.json"
    assert run(
        ["evaluate", model, csv_path, "--config", config,
         "--nlpd-mode", "both", "--out", out]
    ) == 0
    doc = json.loads(out.read_text())
    assert "mean_nlpd_exact" in doc
    assert np.isfinite(doc["mean_nlpd_exact"])


def test_evaluate_unstandardized_metrics(tmp_path, trained_model, capsys):
    model, csv_path, config = trained_model
    capsys.readouterr()
    out = tmp_path / "eval_raw.json"
    assert run(
        ["evaluate", model, csv_path, "--config", config,
         "--unstandardized-metrics", "--out", out]
    ) == 0
    raw = json.loads(out.read_text())
    std = json.loads((tmp_path / "model.json.eval.json").read_text()) if (
        tmp_path / "model.json.eval.json"
    ).exists() else None
    assert np.isfinite(raw["rmse"])
    if std is not None:
        # rescaling to original units changes the numbers
        assert raw["rmse"] != std["rmse"]


# ------------------------------------------------------------------- failures


def test_missing_input_is_io_error(tmp_path, trained_model, capsys):
    model, _, _ = trained_model
    queries = tmp_path / "q.csv"
    queries.write_text("0.1,0.2\n")
    cases = [
        (["train", tmp_path / "absent.csv", "--out", tmp_path / "m.json", "--n-outputs", "2"],
         "absent.csv"),
        # an atomic write into a missing directory names the user's path, not its temp file
        (["predict", model, queries, "--out", tmp_path / "absent" / "p.csv"], "p.csv"),
        # and so does a rename onto an existing directory
        (["predict", model, queries, "--out", tmp_path / "taken"], "taken"),
    ]
    (tmp_path / "taken").mkdir()
    capsys.readouterr()
    for argv, named in cases:
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR io:")
        assert named in err and ".tmp" not in err
    assert not list(tmp_path.glob("*.tmp"))


def test_bad_csv_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,t\n1,2,3\n4,oops,6\n")
    code = run(["train", bad, "--out", tmp_path / "m.json", "--n-outputs", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR invalid:")


# a field one character past the csv module's default limit of 131,072
LONG_FIELD_CSV = "x_0,x_1,y_0,y_1\n1,2,3,4\n" + "1" * 131_073 + ",2,3,4\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_csv_field_past_the_csv_limit_is_invalid(tmp_path, trained_model, capsys, command):
    model, _, config = trained_model
    long_csv = tmp_path / "long.csv"
    long_csv.write_text(LONG_FIELD_CSV)
    argv = {
        "train": ["train", long_csv, "--config", config, "--out", tmp_path / "m2.json"],
        "evaluate": ["evaluate", model, long_csv, "--out", tmp_path / "e.json"],
        "predict": ["predict", model, long_csv, "--out", tmp_path / "p.csv"],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid: row 3:") and "field limit" in err
    assert len(err.splitlines()) == 1, err


NESTED_JSON = "[" * 200_000 + "]" * 200_000  # deeper than the parser's recursion limit


def test_deeply_nested_model_file_is_invalid(tmp_path, trained_model, capsys):
    _, csv_path, _ = trained_model
    model = tmp_path / "nested.json"
    model.write_text(NESTED_JSON)
    capsys.readouterr()
    covars = write_covariates(tmp_path, csv_path)
    assert run(["predict", model, covars, "--out", tmp_path / "p.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid:") and "nested too deeply" in err


def test_model_too_deep_to_serve_is_invalid(tmp_path, capsys):
    # a valid model 3,000 one-child output partitions deep, past the recursion limit
    csv_path = write_train_csv(tmp_path / "train.csv", n=30, p=1)
    config = write_config(tmp_path / "cfg.json", pipeline={"n_outputs": 1})
    model = tmp_path / "model.json"
    assert run(["train", csv_path, "--config", config, "--out", model]) == 0
    bundle = load_model(str(model))
    circuit = bundle.circuit
    for _ in range(3000):
        circuit.nodes.append(ProductYNode([circuit.root], circuit.nodes[circuit.root].region))
        circuit.root = len(circuit.nodes) - 1
    save_model(str(model), circuit, bundle.transforms, bundle.x, bundle.y)
    covars = write_covariates(tmp_path, csv_path)
    capsys.readouterr()
    for argv in (
        ["predict", model, covars, "--out", tmp_path / "p.csv"],
        ["evaluate", model, csv_path, "--config", config, "--out", tmp_path / "e.json"],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert re.match(r"ERROR invalid: the circuit is 30\d\d nodes deep", err), err
        assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "config root must be an object"),
        ('{"schema_version": 2}', "unsupported config schema_version 2"),
        (NESTED_JSON, "nested too deeply"),
    ],
    ids=["not-json", "root-not-object", "other-schema-version", "nested-too-deeply"],
)
def test_unreadable_config_file_is_invalid(tmp_path, capsys, text, message):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    code = run(["train", csv_path, "--config", config, "--out", tmp_path / "m.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid:") and message in err
    assert not (tmp_path / "m.json").exists()


def test_unknown_config_key_is_invalid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    for section, key in (("structure", "k_sums"), ("pipeline", "threads")):
        cfg.write_text(json.dumps({section: {key: 2}}))
        code = run(
            ["train", csv_path, "--config", cfg, "--out", tmp_path / "m.json",
             "--n-outputs", "2"]
        )
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err


def test_unknown_config_section_is_invalid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipelines": {}}))
    code = run(
        ["train", write_train_csv(tmp_path / "t.csv", n=20), "--config", cfg,
         "--out", tmp_path / "m.json", "--n-outputs", "2"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pipeline", "structure_kind", "sumgp"),
        ("training", "gamma_parameterization", "rate"),
        ("training", "adam_beta1", 0.9),
        ("training", "adam_beta2", 0.999),
        ("training", "adam_epsilon", 1e-8),
        ("training", "early_stop_rel_tol", 1e-5),
        ("training", "early_stop_patience", 10),
        ("training", "init_gamma_shape", 2.0),
        ("training", "init_signal_variance", 1.0),
    ],
)
def test_removed_config_keys_are_invalid(tmp_path, capsys, section, key, value):
    config = write_config(tmp_path / "cfg.json", **{section: {key: value}})
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    assert run(["train", csv_path, "--config", config, "--out", tmp_path / "m.json"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("training", "learning_rate", "fast"),
        ("training", "max_epochs", 2.5),
        ("training", "rng_seed", "x"),
        ("pipeline", "test_fraction", "0.3"),
        ("pipeline", "standardize", "no"),
        ("structure", "leaf_threshold", 2.5),
        ("structure", "k_sum", True),
    ],
)
def test_wrong_typed_config_value_is_invalid(tmp_path, capsys, section, key, value):
    config = write_config(tmp_path / "cfg.json", **{section: {key: value}})
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    assert run(["train", csv_path, "--config", config, "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid:") and key in err


def values_outside_their_range():
    """(section, key, a value just outside its range) for each bound of every config key."""
    cases = []
    for section, cls in (
        ("structure", StructureConfig), ("training", TrainConfig), ("pipeline", cli.RunConfig)
    ):
        for f in fields(cls):
            for rule, bound in f.metadata.items():
                if rule == "choices":
                    value = "none_of_these"
                elif rule in ("gt", "lt"):
                    value = bound
                elif "int" in f.type:
                    value = bound - 1
                else:
                    value = math.nextafter(bound, -math.inf)
                cases.append(pytest.param(section, f.name, value, id=f"{section}.{f.name}.{rule}"))
    return cases


@pytest.mark.parametrize("section, key, value", values_outside_their_range())
def test_config_value_outside_its_range_is_invalid(tmp_path, capsys, section, key, value):
    config = write_config(tmp_path / "cfg.json", **{section: {key: value}})
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    assert run(["train", csv_path, "--config", config, "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR invalid: {key} must be")
    assert not (tmp_path / "m.json").exists()


def test_every_flag_dest_names_a_config_key():
    # a dest that named no field would set an attribute that nothing reads
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    dests = {
        a.dest for p in subparsers.choices.values() for a in p._actions if "." in a.dest
    }
    assert dests
    for dest in dests:
        section, key = dest.split(".")
        assert section in cli._SECTIONS
        assert key in cli._section_keys(cli._section(cli.RunConfig(), section))


@pytest.mark.parametrize("section, value", [("structure", []), ("pipeline", 5), ("training", "x")])
def test_config_section_not_object_is_invalid(tmp_path, capsys, section, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({section: value}))
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    code = run(
        ["train", csv_path, "--config", config, "--out", tmp_path / "m.json", "--n-outputs", "2"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid:") and section in err


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "m.json", "q.csv", "--out", "p.csv", "--config", "c.json"],
        ["predict", "m.json", "q.csv", "--out", "p.csv", "--seed", "1"],
        ["predict", "m.json", "q.csv", "--out", "p.csv", "--threads", "2"],
        ["evaluate", "m.json", "t.csv", "--seed", "1"],
        ["evaluate", "m.json", "t.csv", "--threads", "2"],
        ["train", "t.csv", "--out", "m.json", "--threads", "2"],
        ["upsample", "in.ppm", "--out", "o.ppm", "--threads", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_missing_n_outputs_is_invalid(tmp_path, capsys):
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    assert run(["train", csv_path, "--out", tmp_path / "m.json"]) == 2
    assert "n_outputs" in capsys.readouterr().err


def test_predict_column_mismatch_is_invalid(tmp_path, trained_model, capsys):
    model, csv_path, _ = trained_model
    code = run(["predict", model, csv_path, "--out", tmp_path / "p.csv"])
    assert code == 2
    assert "columns" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()  # no partial output


def write_covariates(tmp_path, csv_path):
    path = tmp_path / "q.csv"
    with open(csv_path) as fh, open(path, "w", newline="") as out_fh:
        csv.writer(out_fh).writerows(row[:2] for row in csv.reader(fh))
    return path


def test_model_with_removed_keys_predicts_bit_for_bit(tmp_path, trained_model):
    # model files written before structure_kind was dropped still carry it
    model, csv_path, _ = trained_model
    doc = json.loads(model.read_text())
    doc["structure_kind"] = "momogp"
    doc["extras"]["effective_config"]["pipeline"]["structure_kind"] = "momogp"
    doc["extras"]["effective_config"]["training"]["gamma_parameterization"] = "rate"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    covars = write_covariates(tmp_path, csv_path)
    assert run(["predict", model, covars, "--out", tmp_path / "new.csv"]) == 0
    assert run(["predict", old, covars, "--out", tmp_path / "old.csv"]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def corrupt(doc, corruption):
    """Damage a model document in place; return a phrase the error must name."""
    root = doc["root"]
    inner = next(n for i, n in enumerate(doc["nodes"]) if "children" in n and i != root)
    leaf = next(n for n in doc["nodes"] if n["type"] == "leaf")
    if corruption == "child_cycle":
        inner["children"][0] = root
        return "child ids"
    if corruption == "child_out_of_range":
        inner["children"][0] = len(doc["nodes"]) + 5
        return "child ids"
    if corruption == "leaf_output_too_large":
        leaf["output"] = 5
        return "leaf output"
    if corruption == "leaf_output_negative":
        leaf["output"] = -1
        return "leaf output"
    if corruption == "output_partition_repeats_child":
        split = next(n for n in doc["nodes"] if n["type"] == "product_y" and len(n["children"]) > 1)
        split["children"][1] = split["children"][0]
        return "twice"
    if corruption.startswith("edge"):
        # the sound file's regions, to aim edge corruptions by
        nodes = model_from_dict(json.loads(json.dumps(doc))).circuit.nodes
        i, node = next(
            (i, n) for i, n in enumerate(nodes)
            if doc["nodes"][i]["type"] == "product_x" and len(n.edges) == 2
            and np.isfinite(n.region.lower[n.split_dim])
        )
        edges = doc["nodes"][i]["edges"]
    if corruption == "edges_not_increasing":
        edges.reverse()
        return "edges do not strictly increase"
    if corruption == "edge_below_parent_interval":
        edges[0] = float(node.region.lower[node.split_dim]) - 1.0
        return "edges leave the region's interval"
    if corruption == "edge_moved_past_leaf_rows":
        # still increasing and inside the interval, but every row of the
        # second cell now lies in the first cell, so the second holds none
        x = np.asarray(doc["data"]["x"])
        column = x[oracles.in_region(node.region, x), node.split_dim]
        edges[0] = 0.5 * (column[column < edges[1]].max() + edges[1])
        return "its region holds no stored row"
    if corruption == "edge_count_wrong":
        edges.pop()
        return "1 edges for 3 cells"
    if corruption == "sum_child_from_other_scope":
        circuit = model_from_dict(json.loads(json.dumps(doc))).circuit
        scopes = oracles.node_scopes(circuit)
        sums = [
            i for i, n in enumerate(doc["nodes"]) if n["type"] == "sum" and len(scopes[i]) == 1
        ]
        other = next(i for i in sums if scopes[i] != scopes[sums[-1]])
        doc["nodes"][sums[-1]]["children"][0] = doc["nodes"][other]["children"][0]
        return "unreachable"
    if corruption.endswith("_not_integer"):
        # numbers a truncating loader would read as other integers, and a bool
        key, value = corruption[: -len("_not_integer")], 0.5
        if key in ("root", "n_dims", "n_outputs"):
            doc[key] += value
        elif key == "child_id":
            inner["children"][0] = value
        elif key == "split_dim":
            next(n for n in doc["nodes"] if n["type"] == "product_x")["split_dim"] = True
        else:
            leaf["output"] += value
        return "must be an integer"
    if corruption == "split_dim_out_of_range":
        next(n for n in doc["nodes"] if n["type"] == "product_x")["split_dim"] = 7
        return "split dimension"
    if corruption == "unreachable_node":
        doc["nodes"].append(dict(leaf))
        return "unreachable"
    if corruption.startswith("log_signal_variance_"):
        # 709 overflows inside the kernel, 710 already in exp itself
        leaf["hyperparams"]["log_signal_variance"] = float(corruption.rsplit("_", 1)[1])
        return f"leaf node {doc['nodes'].index(leaf)} "
    if corruption == "transforms_not_object":
        doc["transforms"] = ["standardization"]
        return "transforms"
    if corruption == "extras_not_object":
        doc["extras"] = 3
        return "extras"
    std = doc["transforms"]["standardization"]
    if corruption == "y_mean_nan":
        std["y_mean"][0] = float("nan")
        return "y_mean"
    if corruption in ("y_std_negative", "y_std_zero"):
        std["y_std"][0] = -1.0 if corruption == "y_std_negative" else 0.0
        return "y_std"
    if corruption == "y_mean_wrong_length":
        std["y_mean"] = [0.0]
        return "y_mean"
    if corruption == "x_std_negative":
        std["x_std"][0] = -2.0
        return "x_std"
    doc["nodes"][root]["log_weights"] = [0.0, 0.0]  # unnormalized_root_weights
    return "weights"


@pytest.mark.parametrize(
    "corruption",
    [
        "child_cycle",
        "child_out_of_range",
        "leaf_output_too_large",
        "leaf_output_negative",
        "unnormalized_root_weights",
        "output_partition_repeats_child",
        "edges_not_increasing",
        "edge_below_parent_interval",
        "edge_moved_past_leaf_rows",
        "edge_count_wrong",
        "sum_child_from_other_scope",
        "split_dim_out_of_range",
        "root_not_integer",
        "n_dims_not_integer",
        "n_outputs_not_integer",
        "child_id_not_integer",
        "split_dim_not_integer",
        "leaf_output_not_integer",
        "unreachable_node",
        "y_mean_nan",
        "y_std_negative",
        "y_std_zero",
        "y_mean_wrong_length",
        "x_std_negative",
        "transforms_not_object",
        "extras_not_object",
        "log_signal_variance_709",
        "log_signal_variance_710",
    ],
)
@pytest.mark.filterwarnings("error")
def test_corrupt_model_file_is_invalid(tmp_path, trained_model, capsys, corruption):
    model, csv_path, _ = trained_model
    doc = json.loads(model.read_text())
    message = corrupt(doc, corruption)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    covars = write_covariates(tmp_path, csv_path)
    capsys.readouterr()
    assert run(["predict", bad, covars, "--out", tmp_path / "p.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid:") and message in err
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "p.csv").exists()


def test_exact_nlpd_past_the_old_cap_is_served(tmp_path, capsys):
    # 2,844 nodes and about 1.4e7 induced trees, past the old cap of 1e6:
    # the exact density is one pass
    csv_path = write_train_csv(tmp_path / "train.csv", n=100, p=1)
    config = write_config(
        tmp_path / "cfg.json",
        structure={"k_sum": 3, "leaf_threshold": 8},
        training={"max_epochs": 0},
        pipeline={"n_outputs": 1},
    )
    model = tmp_path / "m.json"
    out = tmp_path / "eval.json"
    assert run(["train", csv_path, "--config", config, "--out", model]) == 0
    code = run(
        ["evaluate", model, csv_path, "--config", config,
         "--nlpd-mode", "exact_mixture", "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["nlpd_mode"] == "exact_mixture"
    bundle = load_model(model)
    assert count_induced_trees(bundle.circuit) > 10**6
    data = load_csv(csv_path, 1)
    expected = mean_nlpd(
        bundle.circuit,
        bundle.transforms.transform_x(data.x),
        bundle.transforms.transform_y(data.y),
        mode="exact_mixture",
    )
    assert doc["mean_nlpd"] == expected


def test_numerical_failures_map_to_exit_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "cmd_train", lambda args: (_ for _ in ()).throw(NumericalError("boom"))
    )
    code = run(["train", "whatever.csv", "--out", "m.json", "--n-outputs", "1"])
    assert code == 4
    assert capsys.readouterr().err.startswith("ERROR numerical: boom")


def test_pca_dims_larger_than_width_is_invalid(tmp_path, capsys):
    csv_path = write_train_csv(tmp_path / "train.csv", n=20)
    code = run(
        ["train", csv_path, "--out", tmp_path / "m.json", "--n-outputs", "2",
         "--pca-dims", "9"]
    )
    assert code == 2


# ------------------------------------------------------------------- upsample


def test_upsample_writes_all_outputs(tmp_path, capsys):
    small = tmp_path / "small.ppm"
    truth = tmp_path / "truth.ppm"
    write_ppm(small, synthetic_image(12))
    write_ppm(truth, synthetic_image(24))
    out = tmp_path / "up.ppm"
    code = run(
        ["upsample", small, "--out", out, "--factor", 2,
         "--leaf-threshold", "48", "--max-epochs", "1", "--seed", "0",
         "--ground-truth", truth]
    )
    assert code == 0
    assert read_ppm(out).shape == (24, 24, 3)
    assert read_ppm(tmp_path / "up.nearest.ppm").shape == (24, 24, 3)
    assert read_ppm(tmp_path / "up.bilinear.ppm").shape == (24, 24, 3)
    stdout = capsys.readouterr().out
    assert "rmse_model=" in stdout and "rmse_bilinear=" in stdout


def test_upsample_config_file_keeps_upsample_defaults(tmp_path, capsys):
    small = tmp_path / "small.ppm"
    write_ppm(small, synthetic_image(8))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"training": {"max_epochs": 0}}))
    code = run(["upsample", small, "--out", tmp_path / "o.ppm", "--config", config])
    assert code == 0
    echoed = capsys.readouterr().out
    effective = json.loads(echoed.split("effective config:\n")[1].split("structure:")[0])
    assert effective["structure"]["leaf_threshold"] == 256
    assert effective["training"]["max_epochs"] == 0


@pytest.mark.parametrize(
    "key, value",
    [("n_outputs", 7), ("test_fraction", 0.5), ("split_seed", 3), ("nlpd_mode", "both")],
)
def test_upsample_refuses_pipeline_keys_it_never_reads(tmp_path, capsys, key, value):
    small = tmp_path / "small.ppm"
    write_ppm(small, synthetic_image(8))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"training": {"max_epochs": 0}, "pipeline": {key: value}}))
    out = tmp_path / "o.ppm"
    assert run(["upsample", small, "--out", out, "--config", config]) == 2
    assert capsys.readouterr().err == f"ERROR invalid: upsample does not read pipeline.{key}\n"
    assert not out.exists()


def test_upsample_factor_validation(tmp_path, capsys):
    small = tmp_path / "small.ppm"
    write_ppm(small, synthetic_image(8))
    code = run(["upsample", small, "--out", tmp_path / "o.ppm", "--factor", 1])
    assert code == 2


def test_upsample_refuses_a_sample_above_maxval(tmp_path, capsys):
    small = tmp_path / "small.ppm"
    small.write_bytes(b"P6\n2 2\n15\n" + bytes([200] + [15] * 11))
    out = tmp_path / "o.ppm"
    assert run(["upsample", small, "--out", out, "--max-epochs", "0"]) == 2
    assert "sample out of range" in capsys.readouterr().err
    assert not out.exists()
