"""Defaults that the library and the CLI parser share, the one reader of
the integer arguments (orders, degrees, indices, sizes, truncations and
positions) of every module, and the one reader of complex points.

Kept apart from the numerical modules, and free of numpy, so that building
the parser loads nothing the chosen subcommand does not need.
"""

import cmath
import operator

#: default truncation P: eigenvalues p = 0..P and kernel series terms
DEFAULT_P_MAX = 200

#: default last diagonal d of a block sweep
DEFAULT_D_MAX = 200

#: the `verify` suites, in the order they run and report
SUITE_NAMES = ("laguerre", "basis", "kernels", "radial", "toeplitz")


def integers(least: int | None = None, **args) -> list[int]:
    """The arguments as ints, read as `operator.index` reads them: Python and
    numpy integers pass, and the first that is not an integer (a float
    included), or is below `least` when that is given, raises a ValueError
    naming it.  The dataclasses store the ints it returns, so a numpy
    integer field never stays fixed-width."""
    out = []
    for name, value in args.items():
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if least is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
        out.append(value)
    return out


def _finite_point(z: complex, name: str = "z") -> complex:
    """z as a complex number; a ValueError naming it when it is not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"point must be finite, got {name}={z}")
    return z
