"""Tests for the Theorem-5 adaptation analysis."""

import math

import numpy as np
import pytest

from repro.theory import (
    adaptive_gamma_moments,
    fixed_gamma_moments,
    moments_for_distribution,
    theorem5_gap_ratio,
)


class TestClosedFormMoments:
    def test_paper_values_at_cap_one(self):
        """Appendix E: E[γℓ] = 1/4 and Var[γℓ] = 5/48 (cap = 1)."""
        mean, variance = adaptive_gamma_moments(cap=1.0)
        assert mean == pytest.approx(1 / 4)
        assert variance == pytest.approx(5 / 48)

    def test_fixed_moments(self):
        mean, variance = fixed_gamma_moments()
        assert mean == 0.5
        assert variance == pytest.approx(1 / 12)

    def test_cap_099_close_to_paper(self):
        mean, variance = adaptive_gamma_moments(cap=0.99)
        assert mean == pytest.approx(1 / 4, abs=1e-3)
        assert variance == pytest.approx(5 / 48, abs=1e-2)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            adaptive_gamma_moments(cap=0.0)
        with pytest.raises(ValueError):
            adaptive_gamma_moments(cap=1.5)

    def test_monte_carlo_agreement(self):
        """Closed form vs simulation of clip(cosθ, 0, cap)."""
        rng = np.random.default_rng(0)
        cos = rng.uniform(-1, 1, size=200_000)
        gammas = np.clip(cos, 0.0, 0.99)
        gammas[cos <= 0] = 0.0
        mean, variance = adaptive_gamma_moments(cap=0.99)
        assert gammas.mean() == pytest.approx(mean, abs=3e-3)
        assert gammas.var() == pytest.approx(variance, abs=3e-3)


class TestQuadratureMoments:
    def test_matches_closed_form_for_uniform(self):
        mean, variance = moments_for_distribution(
            lambda c: 0.5, support=(-1.0, 1.0), cap=0.99
        )
        closed_mean, closed_var = adaptive_gamma_moments(cap=0.99)
        assert mean == pytest.approx(closed_mean, rel=1e-12)
        assert variance == pytest.approx(closed_var, rel=1e-12)

    @pytest.mark.parametrize("cap", [0.5, 0.99, 1.0])
    def test_uniform_exact_at_every_cap(self, cap):
        """Split at 0 and cap, each panel integrates a polynomial exactly."""
        mean, variance = moments_for_distribution(lambda c: 0.5, cap=cap)
        closed_mean, closed_var = adaptive_gamma_moments(cap=cap)
        assert mean == pytest.approx(closed_mean, rel=1e-12)
        assert variance == pytest.approx(closed_var, rel=1e-12)

    def test_support_excluding_zero(self):
        """U(0.2, 0.8) with cap 0.5: only the cap is a kink inside.

        E = (5/3)(0.5² − 0.2²)/2 + 0.5·(5/3)·0.3 = 0.425 and
        E[γ²] = (5/3)(0.5³ − 0.2³)/3 + 0.25·(5/3)·0.3 = 0.19.
        """
        mean, variance = moments_for_distribution(
            lambda c: 1.0 / 0.6, support=(0.2, 0.8), cap=0.5
        )
        assert mean == pytest.approx(0.425, rel=1e-12)
        assert variance == pytest.approx(0.19 - 0.425**2, rel=1e-12)

    def test_negative_support_gives_zero(self):
        """cos θ ≤ 0 everywhere ⇒ γℓ ≡ 0."""
        mean, variance = moments_for_distribution(
            lambda c: 2.0, support=(-1.0, -0.5)
        )
        assert mean == 0.0
        assert variance == 0.0

    def test_triangular_closed_form(self):
        """Density 1 − |c|: E = cap²/2 − cap³/3 + cap(1 − cap)²/2."""
        cap = 0.99
        mean, _ = moments_for_distribution(lambda c: 1.0 - abs(c), cap=cap)
        expected = cap**2 / 2 - cap**3 / 3 + cap * (1 - cap) ** 2 / 2
        assert mean == pytest.approx(expected, rel=1e-12)

    def test_other_distribution_still_tighter(self):
        """The paper: "the same proof process holds for other
        distributions" — check a triangular cosθ density too."""
        def triangular(c):
            return (1.0 - abs(c))  # peak at 0, integrates to 1 on [-1,1]

        mean, _ = moments_for_distribution(triangular, cap=0.99)
        fixed_mean, _ = fixed_gamma_moments()
        assert mean < fixed_mean

    @pytest.mark.parametrize("cap", [0.5, 0.99, 1.0])
    @pytest.mark.parametrize(
        "density",
        [
            lambda c: 0.5,
            lambda c: 1.0 - abs(c),
            lambda c: math.pi / 4 * math.cos(math.pi * c / 2),
            lambda c: 3 / 8 * (1 + c) ** 2,
        ],
        ids=["uniform", "triangular", "cosine", "skewed"],
    )
    def test_parity_with_adaptive_quadrature(self, density, cap):
        """Gauss–Legendre agrees with scipy's adaptive quad.

        quad is told where the kinks are; without ``points`` it misses the
        cap kink by up to 5.5e-8 (triangular, cap 0.99).
        """
        integrate = pytest.importorskip("scipy.integrate")

        def moment(power):
            value, _ = integrate.quad(
                lambda c: min(max(c, 0.0), cap) ** power * density(c),
                -1.0,
                1.0,
                points=[k for k in (0.0, cap) if -1.0 < k < 1.0],
                limit=200,
            )
            return value

        mean, variance = moments_for_distribution(density, cap=cap)
        assert mean == pytest.approx(moment(1), rel=1e-9)
        assert variance == pytest.approx(moment(2) - moment(1) ** 2, rel=1e-9)

    def test_non_normalized_density_rejected(self):
        with pytest.raises(ValueError, match="integrates"):
            moments_for_distribution(lambda c: 1.0, support=(-1.0, 1.0))


class TestGapRatio:
    def test_ratio_is_one_half(self):
        """E[adaptive]/E[fixed] = (1/4)/(1/2) = 1/2 at cap 1."""
        assert theorem5_gap_ratio(cap=1.0) == pytest.approx(0.5)

    def test_ratio_below_one(self):
        """The tighter-bound claim of Theorem 5."""
        assert theorem5_gap_ratio() < 1.0
