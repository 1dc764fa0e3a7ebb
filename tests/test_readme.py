"""The README's examples run as written."""

import math
import re
from pathlib import Path

from momogp.cli import RunConfig, load_run_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first ``language`` fenced block after the ``## heading`` line."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_finite_scores(capsys):
    exec(compile(code_block("Quick start (library)", "python"), "README.md", "exec"), {})
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert set(printed) == {"rmse", "nlpd"}
    assert all(math.isfinite(float(value)) for value in printed.values())


def test_config_example_is_a_valid_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(code_block("Command line", "json"))
    cfg = load_run_config(str(path), RunConfig())
    cfg.validate()
    assert cfg.n_outputs == 2 and cfg.structure.leaf_threshold == 500
