import dataclasses

import numpy as np
import pytest

from femtoshare import BoundContext, NetworkParams
from femtoshare.analysis import _dominant_interferer_rate, _macro_bound
from femtoshare.model import _fap_power_ln


@pytest.fixture(scope="session")
def params30():
    return NetworkParams.from_expected_fap_count(30)


@pytest.fixture(scope="session")
def params100():
    return NetworkParams.from_expected_fap_count(100)


@pytest.fixture(scope="session")
def ctx30(params30):
    return BoundContext.from_params(params30)


@pytest.fixture(scope="session")
def ctx100(params100):
    return BoundContext.from_params(params100)


def with_intensity(ctx, lambda_f):
    """Copy of ``ctx`` whose scenario has FAP intensity ``lambda_f``."""
    return dataclasses.replace(ctx, params=dataclasses.replace(ctx.params, lambda_f=lambda_f))


def macro_bound_at(ctx, d, min_dbm, max_dbm):
    """Macro bound of ``ctx`` at range ``d`` with interfering powers
    spanning [min_dbm, max_dbm]."""
    return float(_macro_bound(ctx, d, *_fap_power_ln(min_dbm, max_dbm)))


def fue_rate(ctx, power=None):
    """Dominant-interferer coefficient for an indoor femto UE, with
    interfering powers drawn from ``power`` (by default the context's)."""
    return _dominant_interferer_rate(ctx.links.interfering_fap_to_indoor,
                                     ctx.fap_power if power is None else power,
                                     ctx.params.gamma_f)


class UnitDraws:
    """Stands in for a numpy Generator: azimuth 0 (the victim sits on the
    +x axis), unit fading, shadowing at the link's mean (unit at the
    scenario's 0 dB), and the first RB on offer (index 0 of a choice or a
    bounded integer draw).  ``random`` calls return the arrays of
    ``random``, in order; ``bounds`` records the bounds of each bounded
    integer draw."""

    def __init__(self, random=()):
        self._uniforms = [np.asarray(u, dtype=float) for u in random]
        self.bounds = []

    def random(self, size=None):
        return self._uniforms.pop(0)

    def uniform(self, low, high, size=None):
        return np.full(size, float(low))

    def standard_exponential(self, out):
        out.fill(1.0)
        return out

    def standard_normal(self, out):
        out.fill(0.0)
        return out

    def choice(self, a, size=None):
        return np.full(size, a[0])

    def integers(self, high):
        self.bounds.append(np.array(high))
        return np.zeros(np.shape(high), dtype=np.int64)


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = next((m for n, m in sys.modules.items()
                if n.endswith("test_acceptance")), None)
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
