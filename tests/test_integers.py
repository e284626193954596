"""Every order, degree, index, size, truncation and position the package
takes is read by one reader, `defaults.integers`: Python and numpy integers
pass, and a float (`2.0` included) or a value below the argument's bound
raises a ValueError that names the argument.  No other package module reads
integers its own way, with `operator.index`.
"""

import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest

from polyfock.exact_poly import factorial
from polyfock.fock_spaces import (SpaceId, evaluation_bound, kernel_partial_sum,
                                  kernel_poly, kernel_recursion_check,
                                  kernel_true)
from polyfock.hermite_basis import HermiteIndex, b_eval, monomial_b_inner
from polyfock.laguerre import (laguerre_eval, laguerre_exact,
                               laguerre_function_sup,
                               rodrigues_identity_residual)
from polyfock.quadrature import CircleRule, gauss_laguerre
from polyfock.radial_ops import (BasisMatrix, RadialOperatorRep,
                                 assemble_blocks, phi_n, radialize_numeric)
from polyfock.toeplitz import (beta, const_symbol, gaussian_symbol, lambda_seq,
                               toeplitz_block, toeplitz_blocks, toeplitz_matrix)

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyfock"

POLY2 = SpaceId("poly", 2)
GAUSS = gaussian_symbol(2.0)
IDENTITY = BasisMatrix(POLY2, 8, np.eye(16, dtype=complex))
REP = phi_n(IDENTITY, 3)

# (id, argument name, least value or None, a valid value, the call with the
# argument set to v); `lru_cache`d functions are called unwrapped, since a
# float key such as 4.0 would find the rule cached for 4
ROWS = [
    ("SpaceId-n", "n", 1, 2, lambda v: SpaceId("poly", v)),
    ("basis_indices-truncation", "truncation", 1, 3, POLY2.basis_indices),
    ("HermiteIndex-p", "p", 0, 1, lambda v: HermiteIndex(v, 2)),
    ("HermiteIndex-q", "q", 0, 1, lambda v: HermiteIndex(2, v)),
    ("monomial_b_inner-d", "d", None, 1, lambda v: monomial_b_inner(v, 0, 1)),
    ("monomial_b_inner-k", "k", None, 0, lambda v: monomial_b_inner(1, v, 1)),
    ("monomial_b_inner-q", "q", None, 1, lambda v: monomial_b_inner(1, 0, v)),
    ("laguerre_eval-n", "n", 0, 2, lambda v: laguerre_eval(v, 1, 1.0)),
    ("laguerre_eval-alpha", "alpha", 0, 1, lambda v: laguerre_eval(2, v, 1.0)),
    ("laguerre_exact-n", "n", 0, 2, lambda v: laguerre_exact(v, 1)),
    ("laguerre_exact-alpha", "alpha", 0, 1, lambda v: laguerre_exact(2, v)),
    ("evaluation_bound-n", "n", 1, 2, lambda v: evaluation_bound(v, 0j)),
    ("kernel_poly-n", "n", 1, 2, lambda v: kernel_poly(v, 0j, 1j)),
    ("kernel_true-n", "n", 1, 2, lambda v: kernel_true(v, 0j, 1j)),
    ("kernel_recursion_check-n", "n", 1, 2, kernel_recursion_check),
    ("kernel_partial_sum-truncation", "truncation", 1, 3,
     lambda v: kernel_partial_sum(POLY2, 0j, 1j, v)),
    ("toeplitz_matrix-truncation", "truncation", 1, 3,
     lambda v: toeplitz_matrix(const_symbol(1.0), POLY2, v)),
    ("phi_n-d_max", "d_max", None, 3, lambda v: phi_n(IDENTITY, v)),
    ("RadialOperatorRep-n", "n", 1, 1,
     lambda v: RadialOperatorRep(v, (np.eye(1),))),
    ("assemble_blocks-truncation", "truncation", 1, 6,
     lambda v: assemble_blocks(REP, v)),
    ("CircleRule-m_angles", "m_angles", 1, 8, CircleRule),
    ("laguerre_function_sup-m", "m", 0, 1,
     lambda v: laguerre_function_sup(v, 2, 1.0)),
    ("laguerre_function_sup-alpha", "alpha", 0, 2,
     lambda v: laguerre_function_sup(1, v, 1.0)),
    ("rodrigues-n", "n", 0, 2, lambda v: rodrigues_identity_residual(v, 1)),
    ("rodrigues-alpha", "alpha", 0, 1,
     lambda v: rodrigues_identity_residual(2, v)),
    ("factorial-n", "n", 0, 5, factorial.__wrapped__),
    ("gauss_laguerre-alpha", "alpha", 0, 1,
     lambda v: gauss_laguerre.__wrapped__(v, 4)),
    ("gauss_laguerre-n_nodes", "n_nodes", 1, 4,
     lambda v: gauss_laguerre.__wrapped__(0, v)),
    ("beta-d", "d", None, 3, lambda v: beta(GAUSS, v, 0, 1)),
    ("beta-j", "j", None, 0, lambda v: beta(GAUSS, 3, v, 1)),
    ("beta-k", "k", None, 1, lambda v: beta(GAUSS, 3, 0, v)),
    ("lambda_seq-n", "n", 1, 2, lambda v: lambda_seq(GAUSS, v, 3)),
    ("lambda_seq-p_max", "p_max", 0, 3, lambda v: lambda_seq(GAUSS, 2, v)),
    ("toeplitz_block-n", "n", 1, 2, lambda v: toeplitz_block(GAUSS, v, 3)),
    ("toeplitz_block-d", "d", None, 3, lambda v: toeplitz_block(GAUSS, 2, v)),
    ("toeplitz_blocks-n", "n", 1, 2, lambda v: toeplitz_blocks(GAUSS, v, 3)),
    ("toeplitz_blocks-d_max", "d_max", None, 3,
     lambda v: toeplitz_blocks(GAUSS, 2, v)),
    ("toeplitz_blocks-d", "d", None, 3,
     lambda v: toeplitz_blocks(GAUSS, 2, [0, v])),
]


def rows(bounded_only=False):
    return [pytest.param(*row[1:], id=row[0]) for row in ROWS
            if row[2] is not None or not bounded_only]


@pytest.mark.parametrize("value", [0.0, 2.0, 2.5, np.float64(3.0), 3.5])
@pytest.mark.parametrize("name, least, valid, call", rows())
def test_float_is_named(name, least, valid, call, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an "
                                         rf"integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name, least, valid, call", rows(bounded_only=True))
def test_value_below_the_bound_is_named(name, least, valid, call):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be >= "
                                         rf"{least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("name, least, valid, call", rows())
def test_numpy_integers_pass(name, least, valid, call):
    want = call(valid)
    for kind in (np.int8, np.int32, np.int64):
        assert same(call(kind(valid)), want), kind


def test_fields_store_python_ints():
    # a numpy integer kept as given would overflow in the fixed-width
    # arithmetic of the evaluations below
    assert type(SpaceId("poly", np.int8(2)).n) is int
    small = np.int8(100)
    assert b_eval(HermiteIndex(small, small), 0.5 + 0.5j) == \
        b_eval(HermiteIndex(100, 100), 0.5 + 0.5j)
    assert laguerre_eval(small, small, 1.0) == laguerre_eval(100, 100, 1.0)
    assert type(CircleRule(np.int16(8)).m_angles) is int
    assert type(RadialOperatorRep(np.int8(2), REP.blocks).n) is int


def same(x, y) -> bool:
    """x == y, arrays compared entry by entry, and dataclasses, lists and
    tuples item by item."""
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            same(getattr(x, f.name), getattr(y, f.name))
            for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(same, x, y))
    return x == y


def test_silent_float_answers_are_gone():
    # each of these used to return a number for an object that does not exist
    with pytest.raises(ValueError, match="^p must be an integer"):
        b_eval(HermiteIndex(1.5, 0), 1)
    with pytest.raises(ValueError, match="^n must be an integer"):
        evaluation_bound(2.5, 0j)
    with pytest.raises(ValueError, match="^m_angles must be an integer"):
        radialize_numeric(IDENTITY, CircleRule(8.5))


def uses_of_operator(tree: ast.AST) -> list[str]:
    """The imports of `operator` and the calls `operator.index(...)`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.partition(".")[0] == "operator"]
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            found.append("from operator import ...")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "index"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "operator"):
            found.append(f"operator.index call at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_only_defaults_reads_integers_itself(path):
    uses = uses_of_operator(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "defaults.py":
        assert uses
    else:
        assert uses == []
