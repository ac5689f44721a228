"""Model parameters and shared error types."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# lambda * r * w must stay an exactly representable double for every reachable
# state, which caps the white-site budget
MAX_N = 10**8

# bounds on lambda and on a non-zero alpha, so that no rate or holding time
# an engine or the DP forms overflows; see :class:`Params`
MIN_RATE = 1e-100
MAX_RATE = 1e100


def is_integer(x) -> bool:
    """An int that is not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x) -> bool:
    """An int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def require_positive(name: str, x) -> None:
    """Raise ParameterError unless x is a finite real > 0 (bools refused)."""
    if not (is_real(x) and math.isfinite(x)) or x <= 0:
        raise ParameterError(f"{name} must be a positive finite real, got {x!r}")


def require_seed(name: str, x) -> None:
    """Raise ParameterError unless x is an integer in [0, 2^64): a master
    seed outside that range would alias one inside it."""
    if not is_integer(x) or not 0 <= x < 2**64:
        raise ParameterError(f"{name} must be a 64-bit unsigned integer, got {x!r}")


class ParameterError(ValueError):
    """Invalid model or experiment parameters."""


class NoTransitionError(RuntimeError):
    """A jump was requested from a state with no available transition."""


class QuadratureError(RuntimeError):
    """Numerical integration could not reach its error target."""


class ResourceLimitError(RuntimeError):
    """A simulation would exceed a configured resource cap."""


class InitMode(enum.Enum):
    """Initial condition of the process.

    STANDARD starts with one red root and n white sites on a complete graph
    with n+1 vertices; red converts spontaneously at rate alpha.

    KORTCHEMSKI starts with one red, one blue, and n white sites on n+2
    vertices and runs plain chase-escape: the conversion mechanism is off,
    so the ``alpha`` field of :class:`Params` has no effect on the dynamics.
    """

    STANDARD = "standard"
    KORTCHEMSKI = "kortchemski"


@dataclass(frozen=True)
class Params:
    """Rates and initial condition shared by every simulation engine.

    n      white-site budget; the graph is K_{n+1} (standard mode) or
           K_{n+2} (kortchemski mode)
    lam    rate at which red spreads across each red-white edge
    alpha  spontaneous red-to-blue conversion rate per red vertex
           (ignored in kortchemski mode, see :class:`InitMode`)

    lam and a non-zero alpha must lie in [MIN_RATE, MAX_RATE] = [1e-100,
    1e100], which keeps every rate and clock finite.  Each rate an engine or
    the DP forms is a count times lam, a count, or a count times alpha, or a
    sum of such terms, with every count at most total_vertices^2 <=
    (MAX_N + 2)^2 (about 1e16): the chain's r * (lam*w + b + alpha), the
    graph's lam*|red-white edges| + |red-blue edges| + alpha*|red|, the
    coupling's death rates lam*k and birth rates i + b0 + alpha, and the DP's
    lam*w + b + alpha.  So every rate is at most 3e116, and a non-zero one
    is at least min(lam, alpha, 1) >= 1e-100.  A holding time is
    -log1p(-u) / rate with u <= 1 - 2^-53, so it is at most 53 log 2 / 1e-100
    < 4e101; tau adds at most 2n + 1 of them (< 8e109), and the summary of
    tau / log n squares it over at most 2^26 trials (< 1e228).  Outside the
    bounds, lam = 1e308 overflows lam*w to inf, which the graph engine reads
    as W = n and the DP as NaN probabilities, and alpha = 1e-320 overflows a
    holding time to inf.
    """

    n: int
    lam: float
    alpha: float
    init_mode: InitMode = InitMode.STANDARD

    def __post_init__(self) -> None:
        if not is_integer(self.n):
            raise ParameterError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.n > MAX_N:
            raise ParameterError(f"n must be <= {MAX_N}, got {self.n}")
        require_positive("lambda", self.lam)
        if not (is_real(self.alpha) and math.isfinite(self.alpha)) or self.alpha < 0:
            raise ParameterError(f"alpha must be a non-negative finite real, got {self.alpha!r}")
        for name, rate in (("lambda", self.lam), ("alpha", self.alpha)):
            if rate and not MIN_RATE <= rate <= MAX_RATE:
                raise ParameterError(
                    f"{name} must lie in [{MIN_RATE:g}, {MAX_RATE:g}], got {rate!r}"
                )
        if not isinstance(self.init_mode, InitMode):
            raise ParameterError(f"init_mode must be an InitMode, got {self.init_mode!r}")
        if self.init_mode is InitMode.STANDARD and self.alpha == 0:
            # with no blue seed and no conversion, blue can never appear and
            # the process never fixates
            raise ParameterError("alpha = 0 with the standard initial condition never fixates")

    @property
    def total_vertices(self) -> int:
        return self.n + (2 if self.init_mode is InitMode.KORTCHEMSKI else 1)

    @property
    def conversion_rate(self) -> float:
        """Effective conversion rate: alpha in standard mode, 0 otherwise."""
        if self.init_mode is InitMode.KORTCHEMSKI:
            return 0.0
        return float(self.alpha)

    @property
    def initial_red_blue(self) -> tuple[int, int]:
        if self.init_mode is InitMode.KORTCHEMSKI:
            return 1, 1
        return 1, 0
