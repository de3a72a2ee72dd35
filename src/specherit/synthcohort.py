"""Synthetic genotype/phenotype cohorts with deterministic seeding.

Cohorts follow the generative model used throughout the package: a raw
genotype matrix of Binomial(2, p_j) allele counts (or an i.i.d. Gaussian
design), a sparse effect vector whose components are Bernoulli(q)-gated
Gaussians, and a phenotype Y = Z u + e.

Reproducibility contract: every random draw flows through a NumPy PCG64
generator seeded by ``replicate_rng(master_seed, replicate_index)``, so
replicate streams are independent of each other and of scheduling order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    ConfigurationError, ShapeMismatchError, _check_count, _check_design, _check_eta_star,
    _check_freqs, _check_number, _check_q, _check_seed, _check_sigma_star2,
)

# Uniforms drawn per block by ``sample_genotypes`` (at least one row).
_DRAW_BLOCK = 1 << 16


def replicate_rng(seed: int, replicate: int = 0) -> np.random.Generator:
    """Derive the PCG64 stream for one replicate of a seeded study.

    Streams for distinct ``replicate`` indices are statistically
    independent and can be generated in any order, which makes replicate
    loops safely parallel.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate),))
    return np.random.default_rng(ss)


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid {what} JSON: {exc}") from exc


def _from_doc(cls, doc, what: str, required: tuple[str, ...], **convert):
    """Build the dataclass ``cls`` from a parsed JSON object that holds ``required``.

    Each keyword names a field and a function applied to its JSON value
    first. A non-object, unknown fields and values that ``cls`` rejects all
    raise :class:`ConfigurationError` naming ``what``.
    """
    if not isinstance(doc, dict) or not doc.keys() >= set(required):
        raise ConfigurationError(f"{what} must be a JSON object with {', '.join(required)}")
    extra = doc.keys() - {f.name for f in fields(cls)}
    if extra:
        raise ConfigurationError(f"unknown {what} fields: {sorted(extra)}")
    try:
        return cls(**{k: convert[k](v) if k in convert else v for k, v in doc.items()})
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {what}: {exc}") from exc


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one synthetic cohort.

    ``eta_star`` is the heritability, ``sigma_star2`` the total variance,
    ``q`` the proportion of non-null random effects. Allele frequencies
    are drawn uniformly on [freq_lo, freq_hi].
    """

    n: int
    N: int
    eta_star: float
    q: float = 1.0
    sigma_star2: float = 1.0
    freq_lo: float = 0.1
    freq_hi: float = 0.5
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        _check_count("n", self.n, 2)
        _check_count("N", self.N, 1)
        _check_eta_star(self.eta_star)
        _check_q(self.q)
        _check_sigma_star2(self.sigma_star2)
        _check_freqs(self.freq_lo, self.freq_hi)
        _check_seed(self.seed)
        if _check_number("replicates", self.replicates, integer=True) < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {self.replicates}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        return cls._from_doc(_parse_json(text, "simulation config"))

    @classmethod
    def _from_doc(cls, doc) -> "SimulationConfig":
        return _from_doc(cls, doc, "simulation config", ("n", "N", "eta_star"))


@dataclass
class GenotypeMatrix:
    """Raw n x N allele-count matrix with entries in {0, 1, 2}."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries)
        if self.entries.ndim != 2:
            raise ShapeMismatchError("genotype matrix must be 2-D")
        _check_count("n", self.entries.shape[0], 2)
        _check_count("N", self.entries.shape[1], 1)
        E = self.entries
        if E.dtype.kind in "iu":
            # read as unsigned of the same width, a negative count lands above 2
            valid = E.view(f"u{E.dtype.itemsize}").max() <= 2
        else:
            valid = np.isin(E, (0, 1, 2)).all()
        if not valid:
            raise ConfigurationError("genotype entries must all be in {0, 1, 2}")


@dataclass
class EffectVector:
    """Sparse random-effect vector: u_i = support_i * Normal(0, sigma_u2)."""

    u: np.ndarray
    support: np.ndarray
    sigma_u2: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.support = np.asarray(self.support, dtype=bool)
        if self.u.shape != self.support.shape:
            raise ShapeMismatchError("u and support must have the same length")
        if np.any(self.u[~self.support] != 0.0):
            raise ConfigurationError("u must vanish off the support")


def sample_allele_frequencies(
    N: int, lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw N i.i.d. allele frequencies uniformly on [lo, hi]."""
    _check_count("N", N, 0)
    _check_freqs(lo, hi)
    return rng.uniform(lo, hi, size=N)


def sample_genotypes(n: int, freqs: np.ndarray, rng: np.random.Generator) -> GenotypeMatrix:
    """Sample allele counts: entry (i, j) ~ Binomial(2, p_j).

    The two binomial trials are realized as two explicit Bernoulli draws
    per entry, ``u < p_j`` with ``u = rng.random()``; rows are i.i.d. and
    columns independent. Draw order is part of the stream contract: every
    first-trial uniform in C order, then every second-trial one, exactly as
    ``rng.random((n, N))`` twice. The uniforms are drawn into one reused
    block of about ``_DRAW_BLOCK`` values, so no n x N float array exists.
    """
    _check_count("n", n, 2)
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.ndim != 1:
        raise ConfigurationError("freqs must be a 1-D vector")
    if freqs.size and not ((freqs > 0.0) & (freqs < 1.0)).all():
        raise ConfigurationError("allele frequencies must lie strictly inside (0, 1)")
    N = freqs.size
    entries = np.empty((n, N), dtype=np.int8)
    rows = max(1, _DRAW_BLOCK // max(N, 1))
    uniform = np.empty((min(rows, n), N))
    hit = np.empty(uniform.shape, dtype=bool)
    for trial in (0, 1):
        for start in range(0, n, rows):
            block = entries[start : start + rows]
            u, h = uniform[: len(block)], hit[: len(block)]
            rng.random(out=u)
            np.less(u, freqs, out=h)
            if trial:
                block += h
            else:
                block[...] = h
    return GenotypeMatrix(entries=entries)


def effect_scale(eta_star: float, sigma_star2: float, q: float, N: int) -> tuple[float, float]:
    """Split (eta_star, sigma_star2) into per-component variances.

    Returns (sigma_u2, sigma_e2) with sigma_u2 = eta_star*sigma_star2/(N q)
    and sigma_e2 = (1 - eta_star)*sigma_star2, so that the heritability
    ratio N q sigma_u2 / (N q sigma_u2 + sigma_e2) recovers eta_star exactly.
    """
    _check_eta_star(eta_star)
    _check_sigma_star2(sigma_star2)
    _check_q(q)
    _check_count("N", N, 1)
    sigma_u2 = eta_star * sigma_star2 / (N * q)
    sigma_e2 = (1.0 - eta_star) * sigma_star2
    return sigma_u2, sigma_e2


def sample_effects(N: int, q: float, sigma_u2: float, rng: np.random.Generator) -> EffectVector:
    """Draw a sparse effect vector: Bernoulli(q) support times N(0, sigma_u2)."""
    _check_count("N", N, 0)
    _check_q(q)
    if _check_number("sigma_u2", sigma_u2) < 0.0:
        raise ConfigurationError(f"sigma_u2 must be >= 0, got {sigma_u2}")
    support = rng.random(N) < q
    u = support * rng.normal(0.0, np.sqrt(sigma_u2), N)
    return EffectVector(u=u, support=support, sigma_u2=sigma_u2)


def simulate_phenotype(Z, u, sigma_e2: float, rng: np.random.Generator) -> np.ndarray:
    """Simulate Y = Z u + e with e_i i.i.d. Normal(0, sigma_e2).

    ``Z`` may be a plain array or any object with a ``Z`` attribute;
    ``u`` may be a plain vector or an :class:`EffectVector`.
    """
    Zm = np.asarray(getattr(Z, "Z", Z), dtype=np.float64)
    uv = np.asarray(getattr(u, "u", u), dtype=np.float64)
    if _check_number("sigma_e2", sigma_e2) < 0.0:
        raise ConfigurationError(f"sigma_e2 must be >= 0, got {sigma_e2}")
    if Zm.ndim != 2 or uv.ndim != 1 or Zm.shape[1] != uv.size:
        raise ShapeMismatchError(
            f"design is {Zm.shape} but effect vector has length {uv.size}"
        )
    e = rng.normal(0.0, np.sqrt(sigma_e2), Zm.shape[0])
    return Zm @ uv + e


@dataclass
class SimulatedCohort:
    """One realized cohort plus the ground truth that generated it."""

    config: SimulationConfig
    replicate: int
    design: str
    genotypes: GenotypeMatrix | None
    Z: np.ndarray
    effects: EffectVector
    sigma_e2: float
    Y: np.ndarray

    @property
    def truth(self) -> dict:
        return {
            "eta_star": self.config.eta_star,
            "sigma_star2": self.config.sigma_star2,
            "q": self.config.q,
            "sigma_u2": self.effects.sigma_u2,
            "sigma_e2": self.sigma_e2,
            "seed": self.config.seed,
            "replicate": self.replicate,
            "design": self.design,
            "support_indices": np.flatnonzero(self.effects.support).tolist(),
        }


def simulate_cohort(
    config: SimulationConfig, replicate: int = 0, design: str = "genotype"
) -> SimulatedCohort:
    """Generate one full cohort (design, effects, phenotype) for a replicate.

    ``design="genotype"`` draws binomial allele counts and standardizes
    them; ``design="gaussian"`` uses an i.i.d. N(0,1) design directly
    (no standardization), which is the setting of the sparse-case theory.
    """
    from .spectral import standardize  # local import to avoid a cycle

    _check_design(design)
    rng = replicate_rng(config.seed, replicate)
    genotypes = None
    if design == "genotype":
        freqs = sample_allele_frequencies(config.N, config.freq_lo, config.freq_hi, rng)
        genotypes = sample_genotypes(config.n, freqs, rng)
        Z = standardize(genotypes).Z
    else:
        Z = rng.standard_normal((config.n, config.N))
    sigma_u2, sigma_e2 = effect_scale(config.eta_star, config.sigma_star2, config.q, config.N)
    effects = sample_effects(config.N, config.q, sigma_u2, rng)
    Y = simulate_phenotype(Z, effects, sigma_e2, rng)
    return SimulatedCohort(
        config=config,
        replicate=replicate,
        design=design,
        genotypes=genotypes,
        Z=Z,
        effects=effects,
        sigma_e2=sigma_e2,
        Y=Y,
    )
