"""The parameter domain of every layer, in one table.

Chains, m-divisors and valuation counts take n >= 2, d >= 1; the topology of
S needs n >= 3 (S connected); the cohomology layers also need d >= 2.  The
command line reads this table for its help text and error messages, and its
caps bound the work one invocation may start; the library is not capped,
apart from the depth of the jet oracle's recursive search and the monomials
of one degree of the Milnor oracle's Jacobian matrix.
Exit 3's budget error lives here too, so that the command line catches it
without loading the layers that raise it (exit 2 is any ValueError).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

M_MIN = 1
SCATTER_MAX = 200  # largest nmax and dmax of the scatter grid
# Command-line caps, checked before any work: the pairs (kappa, r) >= 1 with
# kappa + r*d <= m, coprime or not, bound the chain length; m // d strata.
CLI_MAX_DIVISORS = 250_000
CLI_MAX_STRATA = 20_000
# 2n, the degrees of S: cohomology and floer print degrees linear in n, and verify
# takes up to CLI_MAX_DEGREES // 2 variables.  For m >= d those two and euler form
# the Milnor number (d-1)^n, of at most n * bitlength(d-2) + 1 bits:
# d - 1 <= 2^bitlength(d-2), with equality when d - 1 is a power of two.
CLI_MAX_DEGREES = 20_000
CLI_MAX_MILNOR_BITS = 1_000_000
# cohomology and floer print ranks of up to that many bits for each of the
# m // d strata; measured, they print at most 1.7 characters per stratum and
# bit once that product passes 10^5, so it bounds their output.
CLI_MAX_STRATA_BITS = 20_000_000
# Digits of the largest integer any subcommand may read or print: Python's
# default limit on int-to-str conversion, which is left in place.  The command
# line takes the interpreter's own limit instead when that is set lower.
CLI_MAX_DIGITS = 4300
# Candidate vectors one budget admits: a verify invocation charges all its
# primes' jet counts to one budget.
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """More work than a budget or a command-line cap allows."""


class Domain(NamedTuple):
    n_min: int
    d_min: int
    d_reason: str = ""

    def check(self, n: int, d: int, m: Optional[int] = None) -> None:
        if n < self.n_min:
            raise ValueError(f"n must be >= {self.n_min}")
        if d < self.d_min:
            raise ValueError(f"requires d >= {self.d_min}: {self.d_reason}" if self.d_reason
                             else f"d must be >= {self.d_min}")
        if m is not None and m < M_MIN:
            raise ValueError(f"m must be >= {M_MIN}")


CHAIN = Domain(2, 1)
SURFACE = Domain(3, 1)
COHOMOLOGY = Domain(3, 2, "the degeneration theorem excludes d = 1")
