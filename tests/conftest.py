import math

import pytest

from secthru import FadingLaw, LinkBudget, QosSpec, Tolerances


@pytest.fixture
def law():
    return FadingLaw(mean_gain=1.0)


@pytest.fixture
def link():
    return LinkBudget(avg_snr=1.0, gamma=1.0)


@pytest.fixture
def fast_tol():
    # unit tests that only need ~1e-4 accuracy run the solvers at this setting
    return Tolerances(quad_rel_tol=1e-6, root_tol=1e-10)


@pytest.fixture
def qos_beta1():
    # beta = theta*T*B/ln 2 = 1 exactly: the full-CSI power has a closed form there
    return QosSpec(theta=math.log(2.0) / 200.0, frame_t=2e-3, bandwidth_b=1e5)
