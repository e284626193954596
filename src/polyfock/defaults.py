"""Defaults that the library and the CLI parser share, the one reader of
the integer arguments (orders, degrees, indices, sizes, truncations and
positions) of every module, the one reader of complex points, and the base
of the numpy-free value classes.

Kept apart from the numerical modules, and free of numpy and `dataclasses`,
so that building the parser loads nothing the chosen subcommand does not
need.
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
    naming it.  The value classes store the ints it returns, so a numpy
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


class Value:
    """Base of the value classes of the numpy-free layers (`HermiteIndex`,
    `SpaceId`, `RationalComplex`, `ScaledPolynomial`), which a frozen
    dataclass would make load `dataclasses` and with it `inspect`.

    A subclass names its fields in `__slots__`, in constructor order, and
    sets them once through `Value.__init__`.  Instances are immutable:
    assignment and deletion raise AttributeError.  Equality and hashing are
    over the fields, and an instance equals only instances of its own class;
    the repr is `Name(field=value, ...)`.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not attribute
        # assignment
        return type(self), self._fields()
