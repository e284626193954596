"""Defaults that the library and the CLI parser share.

Kept apart from the numerical modules, and free of numpy, so that building
the parser loads nothing the chosen subcommand does not need.
"""

#: default truncation P: eigenvalues p = 0..P and kernel series terms
DEFAULT_P_MAX = 200

#: default last diagonal d of a block sweep
DEFAULT_D_MAX = 200

#: the `verify` suites, in the order they run and report
SUITE_NAMES = ("laguerre", "basis", "kernels", "radial", "toeplitz")
