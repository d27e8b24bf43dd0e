"""Smoke tests: the experiment scripts run end to end on small settings."""

import csv
import importlib.util
from pathlib import Path

import pytest

from exsample import METHODS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [[], ["--hard"]])
def test_arith_experiment_writes_one_row_per_method(tmp_path, extra):
    out = tmp_path / "arith"
    script = _load("arith_experiment")
    args = ["--out", str(out), "--seeds", "1", "--target-valid", "5", *extra]
    assert script.main(args) == 0
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert sorted(row["method"] for row in rows) == sorted(METHODS)
    assert all(row["seed"] == "1" and row["accepted"] == "5" for row in rows)
