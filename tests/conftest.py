import dataclasses

import numpy as np
import pytest

from femtoshare import BoundContext, NetworkParams, fap_power_distribution
from femtoshare.analysis import _dominant_interferer_rate


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


def with_interferer_power(ctx, min_dbm, max_dbm):
    """Copy of ``ctx`` whose interfering powers span [min_dbm, max_dbm]."""
    return dataclasses.replace(ctx, fap_power=fap_power_distribution(min_dbm, max_dbm))


def with_intensity(ctx, lambda_f):
    """Copy of ``ctx`` whose scenario has FAP intensity ``lambda_f``."""
    return dataclasses.replace(ctx, params=dataclasses.replace(ctx.params, lambda_f=lambda_f))


def fue_rate(ctx):
    """Dominant-interferer coefficient for an indoor femto UE."""
    return _dominant_interferer_rate(ctx, ctx.links.interfering_fap_to_indoor,
                                     ctx.params.gamma_f)


class UnitDraws:
    """Stands in for a numpy Generator: azimuth 0 (the victim sits on the
    +x axis), unit fading, shadowing at the link's mean (unit at the
    scenario's 0 dB), and the first RB on offer."""

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


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = next((m for n, m in sys.modules.items()
                if n.endswith("test_acceptance")), None)
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
