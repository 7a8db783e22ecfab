"""The known failure frontier beyond the realistic box, pinned in both CSI modes.

Full CSI solves each point. Main CSI raises QuadratureError from the
refinement of a mean power at MAX_PANELS (64) panels, carrying the value
there as best and its error estimate as error. At theta 10 and 30, 30 dB,
and at frame_t = 1e3 (beta 1.44e6) the inner eavesdropper rule misses the
layer near z_e -> z_m/gamma of relative width ~1/(beta+1); at eavesdropper
mean 1e-9 it misses the layer near z_e = 0 at the law's own scale. A change
that resolves a point turns its main-CSI case from "raises" to "solves".
"""

import math

import pytest

from secthru import (FadingLaw, LinkBudget, QuadratureError, Tolerances, make_qos, solve_full,
                     solve_main)
from secthru.numerics import MAX_PANELS

TOL = Tolerances()
LAW = FadingLaw()
# name: (qos, SNR in dB, eavesdropper law, full-CSI throughput in bits/s/Hz)
POINTS = {
    "theta-10-30dB": (make_qos(10.0), 30.0, LAW, 3.464870e-04),
    "theta-30-30dB": (make_qos(30.0), 30.0, LAW, 1.155149e-04),
    "eavesdropper-mean-1e-9": (make_qos(0.01), 0.0, FadingLaw(1e-9), 6.272132e-01),
    "frame-t-1e3": (make_qos(0.01, frame_t=1e3), 0.0, LAW, 6.931468e-07),
}


def _link(snr_db):
    return LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=1.0)


@pytest.mark.parametrize("name", POINTS)
def test_full_csi_solves(name):
    qos, snr_db, law_e, throughput = POINTS[name]
    link = _link(snr_db)
    sol = solve_full(qos, link, LAW, law_e, TOL)
    assert sol.power_residual <= TOL.power_rel_tol * link.avg_snr
    assert sol.throughput_bits_s_hz == pytest.approx(throughput, rel=1e-5)


@pytest.mark.parametrize("name", POINTS)
def test_main_csi_raises_at_the_finest_rule_with_its_best_estimate(name):
    qos, snr_db, law_e, _ = POINTS[name]
    with pytest.raises(QuadratureError, match=f"not converged at {MAX_PANELS} panels") as err:
        solve_main(qos, _link(snr_db), LAW, law_e, TOL)
    assert math.isfinite(err.value.best) and err.value.best > 0.0
    assert math.isfinite(err.value.error) and err.value.error > 0.0
