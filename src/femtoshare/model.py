"""Scenario parameters, unit conversions, propagation model, and lognormal helpers.

Conventions used throughout the package:

* powers are linear milliwatts internally; dBm appears only at API
  boundaries and in scenario files,
* lognormal distributions are parameterized in natural-log space
  (location/scale in nats),
* distances are meters, the carrier frequency is MHz,
* antenna gains live on the links: each :class:`PropagationLink` holds
  its linear transmit x receive gain, turns a transmit power into a mean
  received power, and holds its composite channel fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from statistics import NormalDist

import numpy as np

__all__ = [
    "DB_TO_LN",
    "EXP_LN_FIT_MEAN_SHIFT_DB",
    "EXP_LN_FIT_STD_DB",
    "PropagationLink",
    "LinkSet",
    "LognormalDist",
    "NetworkParams",
    "build_links",
    "composite_fading_shadowing",
    "fap_power_distribution",
    "per_subcarrier_power",
    "dbm_to_mw",
    "mw_to_dbm",
    "load_scenario",
]

# dB -> natural-log conversion: x_dB corresponds to a linear factor
# exp(DB_TO_LN * x_dB).
DB_TO_LN = 0.1 * math.log(10.0)

# Moment-matched lognormal fit of the product of a unit-mean exponential
# and a lognormal: the dB-domain mean shifts by -2.5 dB and the dB-domain
# std gains 5.57 dB in quadrature.  These constants define the analysis
# and are deliberately not configurable.
EXP_LN_FIT_MEAN_SHIFT_DB = -2.5
EXP_LN_FIT_STD_DB = 5.57


def dbm_to_mw(p_dbm):
    """Convert dBm to linear milliwatts."""
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0)


def mw_to_dbm(p_mw):
    """Convert linear milliwatts to dBm."""
    p = np.asarray(p_mw, dtype=float)
    if np.any(p <= 0):
        raise ValueError("power in mW must be positive")
    return 10.0 * np.log10(p)


def per_subcarrier_power(total_dbm: float, n_subcarriers: int) -> float:
    """Total power split evenly over OFDMA subcarriers, in dBm."""
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be >= 1")
    return float(total_dbm) - 10.0 * math.log10(n_subcarriers)


@dataclass(frozen=True)
class PropagationLink:
    """One link type: fixed loss, path-loss exponent, antenna gain,
    shadowing statistics.

    ``phi`` is the linear fixed propagation loss (a dividing factor at
    d = 1 m), ``alpha`` the path-loss exponent, ``gain`` the linear
    transmit x receive antenna gain; shadowing is lognormal with dB-domain
    mean ``mu_db`` and std ``sigma_db``.
    """

    phi: float
    alpha: float
    gain: float
    mu_db: float = 0.0
    sigma_db: float = 0.0

    def __post_init__(self):
        if self.phi <= 0:
            raise ValueError("fixed loss phi must be positive")
        if self.gain <= 0:
            raise ValueError("antenna gain must be positive")
        if self.alpha <= 2:
            # alpha > 2 is required for the planar point-process
            # interference integrals to converge.
            raise ValueError("path-loss exponent must exceed 2")
        if self.sigma_db < 0:
            raise ValueError("shadowing std must be non-negative")

    def mean_rx_mw(self, p_mw, d):
        """Mean received power (mW), before fading and shadowing, from a
        transmitter of power ``p_mw`` at range ``d``; elementwise."""
        return p_mw * self.gain / (self.phi * d**self.alpha)

    # cached_property stores into the instance __dict__, which a frozen
    # dataclass allows; equality and hashing see only the fields.
    @cached_property
    def composite(self) -> "LognormalDist":
        """Lognormal fit of this link's Rayleigh power times shadowing."""
        return composite_fading_shadowing(self.mu_db, self.sigma_db)


@dataclass(frozen=True)
class LognormalDist:
    """Lognormal distribution with natural-log location and scale.

    ``scale == 0`` degenerates to a point mass at ``exp(loc)``.
    """

    loc: float
    scale: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            lx = np.log(x, where=x > 0, out=np.full_like(x, -np.inf))
        if self.scale == 0.0:
            out = (lx >= self.loc).astype(float)
        else:
            # the standard normal CDF, 0.5 erfc(-z / sqrt 2), by libm's erfc
            # per value: the package passes a few dozen values at a time
            z = np.ravel((lx - self.loc) / self.scale * -math.sqrt(0.5)).tolist()
            out = 0.5 * np.array([math.erfc(v) for v in z]).reshape(x.shape)
        out = np.where(x <= 0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise ValueError("quantile level must lie in (0, 1)")
        z = [NormalDist().inv_cdf(v) for v in np.ravel(p).tolist()]
        out = np.exp(self.loc + self.scale * np.reshape(z, p.shape))
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.loc, self.scale, size)


def composite_fading_shadowing(mu_db: float, sigma_db: float) -> LognormalDist:
    """Lognormal fit of Rayleigh-power fading times lognormal shadowing.

    The product of a unit-mean exponential and a LN(mu_db, sigma_db) factor
    is approximated by another lognormal with the dB-domain mean shifted by
    ``EXP_LN_FIT_MEAN_SHIFT_DB`` and std widened by ``EXP_LN_FIT_STD_DB``
    in quadrature.
    """
    if sigma_db < 0:
        raise ValueError("sigma_db must be non-negative")
    loc = DB_TO_LN * (mu_db + EXP_LN_FIT_MEAN_SHIFT_DB)
    scale = DB_TO_LN * math.hypot(sigma_db, EXP_LN_FIT_STD_DB)
    return LognormalDist(loc, scale)


def fap_power_distribution(p_min_dbm: float, p_max_dbm: float) -> LognormalDist:
    """Lognormal model of a femto access point's per-subcarrier power (mW).

    Maps the [min, max] dBm operating range to normal dBm statistics by the
    three-sigma rule: mean at the midpoint, std one sixth of the range.
    """
    if p_min_dbm > p_max_dbm:
        raise ValueError("p_min_dbm must not exceed p_max_dbm")
    return LognormalDist(*_fap_power_ln(p_min_dbm, p_max_dbm))


def _fap_power_ln(p_min_dbm, p_max_dbm):
    """Natural-log location and scale of :func:`fap_power_distribution`,
    elementwise over arrays of power ranges."""
    mu_dbm = 0.5 * (p_min_dbm + p_max_dbm)
    sigma_db = (p_max_dbm - p_min_dbm) / 6.0
    return DB_TO_LN * mu_dbm, DB_TO_LN * sigma_db


@dataclass(frozen=True)
class NetworkParams:
    """Scenario parameters for one macrocell with overlaid femtocells.

    Defaults reproduce the reference suburban scenario: a 1000 m macrocell
    at 43 dBm sharing 1200 subcarriers (100 resource blocks) with
    closed-access indoor femtocells capped at 23 dBm, both with a 10 dB
    outage constraint.
    """

    r_m: float = 1000.0            # macrocell radius, m
    r_f: float = 30.0              # femtocell radius, m
    p_m_total_dbm: float = 43.0    # MBS total transmit power
    p_f_max_total_dbm: float = 23.0  # FAP total transmit power cap
    g_m_dbi: float = 15.0
    g_f_dbi: float = 2.0
    g_u_dbi: float = 0.0
    f_c_mhz: float = 2000.0
    gamma_m_db: float = 5.0        # macro SIR target
    gamma_f_db: float = 10.0       # femto SIR target
    eps_m: float = 0.1             # macro outage constraint
    eps_f: float = 0.1             # femto outage constraint
    lambda_f: float = 30.0 / (math.pi * 1000.0**2)  # FAPs per m^2
    xi_db: float = 10.0            # wall-partition loss
    alpha_m: float = 4.0
    alpha_f: float = 3.0
    alpha_ff: float = 4.0
    alpha_mf: float = 4.0
    alpha_fm: float = 4.0
    sigma_m_db: float = 8.0
    sigma_f_db: float = 4.0
    sigma_ff_db: float = 12.0
    sigma_mf_db: float = 10.0
    sigma_fm_db: float = 10.0
    mu_m_db: float = 0.0
    mu_f_db: float = 0.0
    mu_ff_db: float = 0.0
    mu_mf_db: float = 0.0
    mu_fm_db: float = 0.0
    n_subcarriers: int = 1200
    n_rb: int = 100
    subcarriers_per_rb: int = 12
    n_mue_per_cell: int = 100

    def __post_init__(self):
        for name in PARAM_FIELDS:
            value = getattr(self, name)
            if name in COUNT_FIELDS and not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not (0 < self.r_f < self.r_m):
            raise ValueError("need 0 < r_f < r_m")
        if not (0 <= self.eps_m < 1 and 0 <= self.eps_f < 1):
            raise ValueError("outage constraints must lie in [0, 1)")
        if self.lambda_f < 0:
            raise ValueError("lambda_f must be non-negative")
        if self.n_subcarriers != self.n_rb * self.subcarriers_per_rb:
            raise ValueError("n_subcarriers must equal n_rb * subcarriers_per_rb")
        for name in ("alpha_m", "alpha_f", "alpha_ff", "alpha_mf", "alpha_fm"):
            if getattr(self, name) <= 2:
                raise ValueError(f"{name} must exceed 2")

    @classmethod
    def from_expected_fap_count(cls, n_f: float, **overrides) -> "NetworkParams":
        """Build params with the SPPP intensity set from the expected
        number of FAPs inside the macrocell disc."""
        if n_f < 0:
            raise ValueError("n_f must be non-negative")
        r_m = overrides.get("r_m", cls.r_m)
        return cls(lambda_f=n_f / (math.pi * r_m**2), **overrides)

    @property
    def n_f(self) -> float:
        """Expected FAP count in the macrocell disc."""
        return self.lambda_f * math.pi * self.r_m**2

    @property
    def p_m_subcarrier_dbm(self) -> float:
        return per_subcarrier_power(self.p_m_total_dbm, self.n_subcarriers)

    @property
    def p_f_max_subcarrier_dbm(self) -> float:
        return per_subcarrier_power(self.p_f_max_total_dbm, self.n_subcarriers)

    # Linear SIR targets, computed once per instance (dB to linear is the
    # dBm-to-mW formula).  cached_property stores into the instance
    # __dict__, which a frozen dataclass allows; equality and hashing see
    # only the fields.
    @cached_property
    def gamma_m(self) -> float:
        return float(dbm_to_mw(self.gamma_m_db))

    @cached_property
    def gamma_f(self) -> float:
        return float(dbm_to_mw(self.gamma_f_db))

    @property
    def mue_density(self) -> float:
        """Co-channel macro UE density over the macrocell disc, per m^2."""
        return self.n_mue_per_cell / (math.pi * self.r_m**2)


# Scenario field names, in declaration order, and those that hold counts.
PARAM_FIELDS = tuple(f.name for f in fields(NetworkParams))
COUNT_FIELDS = frozenset(f.name for f in fields(NetworkParams) if f.type == "int")


@dataclass(frozen=True)
class LinkSet:
    """The five propagation links of a scenario."""

    macro_to_outdoor: PropagationLink
    serving_fap_to_indoor: PropagationLink
    fap_to_outdoor: PropagationLink
    macro_to_indoor: PropagationLink
    interfering_fap_to_indoor: PropagationLink


def build_links(params: NetworkParams) -> LinkSet:
    """Derive the five links from scenario parameters.

    Fixed losses: the outdoor loss scales with the cube of the carrier
    frequency in MHz; indoor-outdoor links add one wall-partition loss,
    femto-to-femto links add two.  Every link's gain is its transmitter's
    antenna gain times the UE's.
    """
    phi_m = 10.0 ** (-7.1) * params.f_c_mhz**3
    phi_f = 10.0**3.7
    xi, g_m, g_f, g_u = (float(dbm_to_mw(x)) for x in (
        params.xi_db, params.g_m_dbi, params.g_f_dbi, params.g_u_dbi))
    g_m, g_f = g_m * g_u, g_f * g_u
    return LinkSet(
        macro_to_outdoor=PropagationLink(
            phi_m, params.alpha_m, g_m, params.mu_m_db, params.sigma_m_db),
        serving_fap_to_indoor=PropagationLink(
            phi_f, params.alpha_f, g_f, params.mu_f_db, params.sigma_f_db),
        fap_to_outdoor=PropagationLink(
            phi_f * xi, params.alpha_mf, g_f, params.mu_mf_db, params.sigma_mf_db),
        macro_to_indoor=PropagationLink(
            phi_m * xi, params.alpha_fm, g_m, params.mu_fm_db, params.sigma_fm_db),
        interfering_fap_to_indoor=PropagationLink(
            phi_f * xi**2, params.alpha_ff, g_f, params.mu_ff_db, params.sigma_ff_db),
    )


def load_scenario(path) -> NetworkParams:
    """Read a scenario from a JSON file.

    The file mirrors :class:`NetworkParams` field-for-field; every field is
    optional, so an empty object reproduces the default scenario.  ``n_f``
    may be given instead of (or along with) ``lambda_f``.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("scenario file must contain a JSON object")
    n_f = raw.pop("n_f", None)
    unknown = set(raw).difference(PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    if n_f is None or "lambda_f" in raw:
        params = NetworkParams(**raw)
    else:
        params = NetworkParams.from_expected_fap_count(n_f, **raw)
    if n_f is not None and not math.isclose(params.n_f, n_f, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError("inconsistent n_f and lambda_f in scenario file")
    return params
