"""Exception hierarchy and the parameter rules.

Errors split into two families that the CLI maps onto exit codes:
configuration problems (bad flags, bad config files, illegal parameter
ranges) and data/numerical problems (bad input data, degenerate models,
solver failures).

Each parameter rule is one function, called by every entry that takes the
parameter: ``_check_count`` (an integer >= a floor, such as N),
``_check_seed``, ``_check_q``, ``_check_level``, ``_check_delta``,
``_check_eta_star``, ``_check_sigma_star2``, ``_check_freqs`` and
``_check_design``. Each applies ``_check_number`` (a bool, string or None
is not a number) before its range. The module imports neither numpy nor
the package, so every module can import it.
"""

import math
import numbers


class SpecheritError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpecheritError, ValueError):
    """Invalid parameter value, range, or configuration document."""


class DataError(SpecheritError):
    """Invalid or degenerate input data."""


class ShapeMismatchError(DataError):
    """Array dimensions do not agree with the operation's contract."""


class DataParseError(DataError):
    """A data file failed to parse; message carries the line number."""


class MonomorphicColumnError(DataError):
    """Genotype columns whose entries are all equal and finite (monomorphic)
    carry no information and cannot be standardized; ``.columns`` lists them
    all, the message at most 10."""

    def __init__(self, columns):
        self.columns = tuple(int(c) for c in columns)
        shown = list(self.columns[:10])
        if len(self.columns) > 10:  # a message line stays short; .columns has them all
            shown = f"{len(self.columns)} columns, the first 10 {shown}"
        super().__init__(f"monomorphic (zero-variance) columns cannot be standardized: {shown}")


class RankDeficientCovariatesError(DataError):
    """Covariate matrix is not of full column rank."""


class DegenerateDataError(DataError):
    """Observations carry no signal (e.g. all-zero phenotype)."""


class NumericalFailureError(SpecheritError):
    """A numerical routine failed to converge or produced non-finite values."""


class UnidentifiableModelError(SpecheritError):
    """The likelihood carries no information about the heritability
    (all eigenvalues equal to one, or zero spectral variance)."""


def _check_number(name: str, value, integer: bool = False):
    """``value``, unless it is a bool or not a real number (an integer if ``integer``)."""
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigurationError(f"{name} must be {noun}, got {value!r}")
    return value


def _check_count(name: str, value, least: int, error=ConfigurationError) -> None:
    if _check_number(name, value, integer=True) < least:
        raise error(f"need {name} >= {least}, got {name}={value}")


def _check_seed(seed) -> None:
    if _check_number("seed", seed, integer=True) < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")


def _check_q(q) -> None:
    if not 0.0 < _check_number("q", q) <= 1.0:
        raise ConfigurationError(f"q must be in (0, 1], got {q}")


def _check_level(level, name: str = "level") -> None:
    if not 0.0 < _check_number(name, level) < 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1), got {level}")


def _check_delta(delta) -> None:  # the solver searches eta on [0, 1 - delta]
    if not 0.0 < _check_number("delta", delta) < 0.5:
        raise ConfigurationError(f"delta must be in (0, 0.5), got {delta}")


def _check_eta_star(eta_star) -> None:
    if not 0.0 <= _check_number("eta_star", eta_star) < 1.0:
        raise ConfigurationError(f"eta_star must be in [0, 1), got {eta_star}")


def _check_sigma_star2(sigma_star2) -> None:
    if not 0.0 < _check_number("sigma_star2", sigma_star2) < math.inf:  # JSON parses Infinity
        raise ConfigurationError(f"sigma_star2 must be positive and finite, got {sigma_star2}")


def _check_freqs(freq_lo, freq_hi) -> None:
    _check_number("freq_lo", freq_lo)
    _check_number("freq_hi", freq_hi)
    if not 0.0 < freq_lo <= freq_hi < 1.0:
        raise ConfigurationError(f"need 0 < freq_lo <= freq_hi < 1, got [{freq_lo}, {freq_hi}]")


def _check_design(design, name: str = "design") -> None:
    if design not in ("genotype", "gaussian"):
        raise ConfigurationError(f"{name} must be 'genotype' or 'gaussian', got {design!r}")
