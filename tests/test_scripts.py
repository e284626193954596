"""The data scripts in `scripts/`, run at small sizes."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from polyfock import toeplitz
from polyfock.toeplitz import (exp_decay_symbol, indicator_symbol,
                               inverse_quadratic_symbol, toeplitz_block)

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_block_scalar_distances(path, n, ds):
    """The records name each symbol and diagonal in ds, in order, and each
    distance is bit for bit that of its own `toeplitz_block` call."""
    records = json.loads(path.read_text())
    symbols = {a.name: a for a in (indicator_symbol(1.0), exp_decay_symbol(),
                                   inverse_quadratic_symbol())}
    assert [(r["symbol"], r["d"]) for r in records] == [
        (name, d) for name in symbols for d in ds]
    for r in records:
        a = symbols[r["symbol"]]
        block = toeplitz_block(a, n, r["d"])
        want = np.linalg.norm(block - a.limit_at_infinity * np.eye(n), 2)
        assert r["distance_to_scalar"] == float(want)


def test_block_scalar_distance_stops_at_dmax(tmp_path):
    script = load_script("emit_conjecture_data")
    script.emit_block_scalar_distance(str(tmp_path), 2, 20)
    check_block_scalar_distances(tmp_path / "block_scalar_distance_n2.json", 2,
                                 (0, 1, 2, 5, 10, 20))


def test_block_scalar_distance_rejects_a_diagonal_below_the_first(tmp_path):
    script = load_script("emit_conjecture_data")
    with pytest.raises(ValueError, match="got -3$"):
        script.emit_block_scalar_distance(str(tmp_path), 3, -3)
    assert not any(tmp_path.iterdir())


def test_block_scalar_distance_one_pass_per_symbol(tmp_path, monkeypatch):
    script = load_script("emit_conjecture_data")
    passes, radial_pass = [], toeplitz._diagonal_blocks
    monkeypatch.setattr(toeplitz, "_diagonal_blocks",
                        lambda *args: passes.append(args) or radial_pass(*args))
    script.emit_block_scalar_distance(str(tmp_path), 3, 200)
    monkeypatch.undo()
    assert len(passes) == 3
    check_block_scalar_distances(tmp_path / "block_scalar_distance_n3.json", 3,
                                 (0, 1, 2, 5, 10, 20, 50, 100, 200))
