"""The data scripts in `scripts/`, run at small sizes."""

import importlib.util
import json
import pathlib

import numpy as np

from polyfock.toeplitz import (exp_decay_symbol, indicator_symbol,
                               inverse_quadratic_symbol, toeplitz_block)

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_block_scalar_distance_stops_at_dmax(tmp_path):
    script = load_script("emit_conjecture_data")
    script.emit_block_scalar_distance(str(tmp_path), 2, 20)
    records = json.loads((tmp_path / "block_scalar_distance_n2.json").read_text())
    symbols = {a.name: a for a in (indicator_symbol(1.0), exp_decay_symbol(),
                                   inverse_quadratic_symbol())}
    assert [(r["symbol"], r["d"]) for r in records] == [
        (name, d) for name in symbols for d in (0, 1, 2, 5, 10, 20)]
    for r in records:
        a = symbols[r["symbol"]]
        block = toeplitz_block(a, 2, r["d"])
        want = np.linalg.norm(block - a.limit_at_infinity * np.eye(2), 2)
        assert r["distance_to_scalar"] == float(want)
