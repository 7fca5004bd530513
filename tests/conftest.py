import pytest

from dpstab import WaveParams, solve_profile
from dpstab.evans import certify_eta


@pytest.fixture(scope="session")
def params01():
    return WaveParams(0.1, 1.0)


@pytest.fixture(scope="session")
def prof01(params01):
    return solve_profile(params01)


@pytest.fixture(scope="session")
def prof60(params01):
    # finer, wider grid: keeps weighted far-field edge effects below 1e-6
    return solve_profile(params01, L=60.0, h=0.025)


@pytest.fixture(scope="session")
def cert01(prof01):
    # the keyhole certificate at alpha = 0.5, the slowest object of the suite
    return certify_eta(prof01, 0.5)
