import math
from dataclasses import fields

import numpy as np
import pytest

from secthru import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    Solution,
    ValidationError,
    make_qos,
)
from oracles import simpson_density

LN2 = math.log(2.0)


class TestMakeQos:
    def test_zero_exponent(self):
        qos = make_qos(0.0, 2e-3, 1e5)
        assert qos.beta == 0.0

    def test_unit_beta(self):
        # theta*T*B = ln 2 forces beta = 1 exactly
        qos = make_qos(LN2 / 200.0, 2e-3, 1e5)
        assert qos.beta == pytest.approx(1.0, abs=1e-15)

    def test_derived_beta(self):
        qos = make_qos(0.01, 2e-3, 1e5)
        assert qos.beta == pytest.approx(2.0 / LN2, rel=1e-15)
        assert qos.beta == pytest.approx(2.8854, abs=1e-4)

    def test_round_trip(self):
        qos = make_qos(0.0173, 2e-3, 1e5)
        theta_back = qos.beta * LN2 / (qos.frame_t * qos.bandwidth_b)
        assert theta_back == pytest.approx(qos.theta, rel=1e-14)

    @pytest.mark.parametrize("theta,t,b", [(-0.1, 2e-3, 1e5), (0.01, 0.0, 1e5),
                                           (0.01, 2e-3, -1.0), (math.nan, 2e-3, 1e5),
                                           (1e308, 2e-3, 1e5), (0.01, 1e300, 1e300)])
    def test_rejects_bad_arguments(self, theta, t, b):
        with pytest.raises(ValidationError):
            make_qos(theta, t, b)

    def test_beta_is_derived(self):
        qos = QosSpec(theta=0.01, frame_t=2e-3, bandwidth_b=1e5)
        assert qos.beta == make_qos(0.01).beta
        with pytest.raises(TypeError):  # beta is not a field
            QosSpec(theta=0.01, frame_t=2e-3, bandwidth_b=1e5, beta=1.0)


class TestFadingLaw:
    def test_density_normalizes(self, law):
        value = simpson_density(np.ones_like, law, 0.0, law.tail_cutoff(1e-12))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_density_mean(self):
        for mean in (0.5, 1.0, 3.0):
            law = FadingLaw(mean_gain=mean)
            value = simpson_density(lambda z: z, law, 0.0, law.tail_cutoff(1e-12))
            assert value == pytest.approx(mean, rel=1e-9)

    def test_density_nonnegative_and_zero_below_support(self, law):
        z = np.linspace(-2.0, 30.0, 1001)
        d = law.density(z)
        assert np.all(d >= 0.0)
        assert np.all(d[z < 0] == 0.0)

    def test_cdf_shape(self, law):
        z = np.linspace(0.0, 40.0, 2001)
        c = law.cdf(z)
        assert float(law.cdf(0.0)) == 0.0
        assert np.all(np.diff(c) >= 0.0)
        assert c[-1] == pytest.approx(1.0, abs=1e-12)
        assert float(law.cdf(-1.0)) == 0.0

    def test_exponential_forms(self):
        law = FadingLaw(mean_gain=2.0)
        z = np.array([0.0, 0.5, 1.0, 4.0])
        assert np.allclose(law.density(z), np.exp(-z / 2.0) / 2.0)
        assert np.allclose(law.cdf(z), 1.0 - np.exp(-z / 2.0))

    def test_integrated_cdf(self):
        # m*(x - 1 + e^-x), x = a/m, against 40-digit decimal arithmetic on both
        # sides of the series switch at x = 1e-3, where the plain form cancels
        from decimal import Decimal, localcontext

        law = FadingLaw(mean_gain=2.0)
        a = 2.0 * np.concatenate([np.geomspace(1e-12, 1e-3, 40, endpoint=False),
                                  np.geomspace(1e-3, 60.0, 40)])
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [float(2 * (Decimal(x / 2.0) - 1 + (-Decimal(x / 2.0)).exp())) for x in a]
        np.testing.assert_allclose(law.integrated_cdf(a), exact, rtol=1e-12, atol=0.0)
        assert law.integrated_cdf(-1.0) == 0.0 and law.integrated_cdf(0.0) == 0.0
        assert law.integrated_cdf(1.5) == law.integrated_cdf(np.array([1.5]))[0]

    def test_tail_cutoff(self, law):
        cut = law.tail_cutoff(1e-12)
        assert cut == pytest.approx(-math.log(1e-12))
        assert 1.0 - float(law.cdf(cut)) == pytest.approx(1e-12, rel=1e-3)

    def test_rejects_unknown_family(self):
        with pytest.raises(TypeError):  # the exponential law takes no family to name
            FadingLaw(family="nakagami")
        with pytest.raises(ValidationError):
            FadingLaw(mean_gain=0.0)


class TestSampleGain:
    def test_law_of_large_numbers(self, law):
        z = law.sample(np.random.default_rng(11), 1_000_000)
        assert z.mean() == pytest.approx(1.0, abs=0.01)

    def test_tail_probability(self, law):
        z = law.sample(np.random.default_rng(11), 1_000_000)
        assert np.mean(z > 1.0) == pytest.approx(math.exp(-1.0), abs=0.005)

    def test_deterministic(self, law):
        a = law.sample(np.random.default_rng(42), 1000)
        b = law.sample(np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)


class TestLinkBudget:
    def test_validation(self):
        LinkBudget(avg_snr=0.0, gamma=1.0)
        with pytest.raises(ValidationError):
            LinkBudget(avg_snr=-1.0, gamma=1.0)
        with pytest.raises(ValidationError):
            LinkBudget(avg_snr=1.0, gamma=0.0)


class TestPolicyAndResult:
    def test_policy_mode_checked(self):
        with pytest.raises(ValidationError):
            PowerPolicy(csi_mode="none", state_power=lambda z: z)

    def test_policy_is_the_map_alone(self):
        # lam, beta and threshold are the Solution's; simulate_queue reads these two
        assert [f.name for f in fields(PowerPolicy)] == ["csi_mode", "state_power"]
        sol = Solution(csi_mode="main", beta=1.0, nu=0.5, threshold=0.7,
                       throughput_bits_s_hz=0.1, power_residual=0.0, quad_error=0.0,
                       panels=8, build_state_power=lambda panels: panels)
        policy = sol.policy()
        assert (policy.csi_mode, policy.state_power) == ("main", 8)

    def test_result_nonnegative(self):
        def solution(throughput, beta=1.0, nu=0.5):
            return Solution(csi_mode="full", beta=beta, nu=nu, threshold=nu,
                            throughput_bits_s_hz=throughput, power_residual=0.0,
                            quad_error=0.0, panels=8, build_state_power=lambda panels: None)

        with pytest.raises(ValidationError):
            solution(-0.1)
        assert solution(0.5).lam == 0.5 * 1.0
        assert solution(0.5, beta=2.0).lam == 2.0 * 0.5
        assert solution(0.5, beta=0.0).lam == 0.5  # the rate multiplier nu itself
