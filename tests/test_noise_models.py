"""Error laws: closed forms, Fourier pairs, envelopes, and samplers."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from berkson_bands import Laplace, LaplaceMixture, NoError, make_noise

from conftest import LAP01, MIX
from oracles import density_kinks


def fourier_of_density(noise, t):
    """Fourier transform of the density by cos-weighted quadrature.

    The integrand is split at the density kinks so each piece is smooth;
    the +-1.5 cut keeps the oscillatory pieces short.
    """
    pieces = sorted(set(density_kinks(noise)) | {-1.5, 1.5})
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        val, _ = quad(lambda x: float(noise.density(x)), lo, hi,
                      weight="cos", wvar=float(t), limit=200)
        total += val
    return total


def test_laplace_parameters():
    law = Laplace(a=2.0)
    assert law.beta == 2.0
    assert law.smoothness_class == "S"
    # sd sqrt(2)/a: the law of sd sqrt(2)/2 has rate 2
    assert make_noise("laplace", sigma_delta=math.sqrt(2.0) / 2.0).a == pytest.approx(
        2.0, rel=1e-12)
    assert law.c_lower == 1.0
    assert law.c_upper == 4.0
    assert density_kinks(law) == [0.0]


def test_laplace_charfn_closed_form():
    law = Laplace(a=2.0)
    t = np.array([-3.0, 0.0, 2.0])
    assert np.allclose(law.charfn(t), 1.0 / (1.0 + (t / 2.0) ** 2),
                       rtol=0, atol=1e-15)


def test_rate_from_sd_round_trip():
    law = make_noise("laplace", sigma_delta=0.1)
    assert law == LAP01 == Laplace(a=math.sqrt(2.0) / 0.1)
    assert law.a == pytest.approx(math.sqrt(2.0) / 0.1, rel=1e-12)
    with pytest.raises(ValueError, match="sigma_delta must be positive"):
        make_noise("laplace", sigma_delta=0.0)


def test_mixture_parameters():
    assert MIX.beta == 2.0
    assert MIX.smoothness_class == "W"
    assert MIX.a == pytest.approx(math.sqrt(2.0) / 0.05, rel=1e-12)
    assert (MIX.lam, MIX.mu) == (0.2, 0.3)
    assert MIX.c_lower == pytest.approx(min(MIX.a**2, 1.0) * (1.0 - 2.0 * MIX.lam))
    assert MIX.c_upper == pytest.approx(max(MIX.a**2, 1.0))
    assert density_kinks(MIX) == [-0.3, 0.0, 0.3]


def test_mixture_charfn_closed_form():
    law = LaplaceMixture(a=1.0, lam=0.2, mu=0.3)
    t = np.array([0.0, 1.5, -4.0])
    expect = (1.0 - 0.2 + 0.2 * np.cos(0.3 * t)) / (1.0 + t**2)
    assert np.allclose(law.charfn(t), expect, rtol=0, atol=1e-15)


def test_rate_must_be_positive():
    with pytest.raises(ValueError, match="rate must be positive"):
        Laplace(a=0.0)
    with pytest.raises(ValueError, match="rate must be positive"):
        LaplaceMixture(a=-1.0, lam=0.2, mu=0.3)
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            Laplace(a=a)
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            LaplaceMixture(a=a, lam=0.2, mu=0.3)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="shift must be nonnegative and finite"):
            LaplaceMixture(a=1.0, lam=0.2, mu=mu)
    with pytest.raises(ValueError, match="mixture weight"):
        LaplaceMixture(a=1.0, lam=math.nan, mu=0.3)
    for kind in ("laplace", "mixture"):
        for sd in (0.0, -0.1, math.nan, math.inf, None):
            with pytest.raises(ValueError, match="sigma_delta must be positive and finite"):
                make_noise(kind, sigma_delta=sd)


def test_mixture_shape_parameter_bounds():
    with pytest.raises(ValueError, match="mixture weight"):
        LaplaceMixture(a=1.0, lam=0.5, mu=0.3)
    with pytest.raises(ValueError, match="mixture weight"):
        LaplaceMixture(a=1.0, lam=-0.01, mu=0.3)
    with pytest.raises(ValueError, match="shift must be nonnegative"):
        LaplaceMixture(a=1.0, lam=0.2, mu=-0.3)


@pytest.mark.parametrize("law", [LAP01, MIX], ids=["laplace", "mixture"])
def test_density_and_charfn_are_a_fourier_pair(law):
    for t in (0.5, 3.0, 10.0, 20.0, -7.5):
        assert fourier_of_density(law, t) == pytest.approx(
            float(law.charfn(t)), abs=1e-6)


def test_charfn_obeys_polynomial_envelope():
    t = np.arange(-50.0, 50.0001, 0.1)
    for law in (Laplace(1.0), LAP01, LaplaceMixture(1.0, 0.2, 0.3), MIX, NoError()):
        env = (1.0 + t**2) ** (-law.beta / 2.0)
        mod = np.abs(np.asarray(law.charfn(t)))
        assert np.all(law.c_lower * env <= mod + 1e-12)
        assert np.all(mod <= law.c_upper * env + 1e-12)


def test_sampler_matches_law_moments():
    draws = LAP01.sample(np.random.default_rng(0), 100_000)
    assert abs(draws.std() / 0.1 - 1.0) < 0.02
    mixed = MIX.sample(np.random.default_rng(1), 200_000)
    sd = math.sqrt(2.0 / MIX.a**2 + MIX.lam * MIX.mu**2)
    assert abs(mixed.std() / sd - 1.0) < 0.02
    assert abs(mixed.mean()) < 3.0 * sd / math.sqrt(200_000)


def test_sampler_is_deterministic():
    one = LAP01.sample(np.random.default_rng(5), 1000)
    two = Laplace(a=LAP01.a).sample(np.random.default_rng(5), 1000)
    assert np.array_equal(one, two)


def test_error_free_law_degenerates():
    law = NoError()
    assert law.beta == 0.0
    assert (law.c_lower, law.c_upper) == (0.5, 2.0)
    assert np.array_equal(law.charfn(np.linspace(-9.0, 9.0, 7)), np.ones(7))
    assert np.array_equal(law.sample(np.random.default_rng(0), 5), np.zeros(5))
    assert density_kinks(law) == []
    with pytest.raises(ValueError, match="no Lebesgue density"):
        law.density(0.0)


def test_law_constants_are_not_constructor_arguments():
    # beta, the smoothness class and NoError's envelope belong to the law
    for build in (lambda: Laplace(2.0, 1.0), lambda: Laplace(a=2.0, beta=1.0),
                  lambda: LaplaceMixture(1.0, 0.2, 0.3, 2.0),
                  lambda: NoError(c_lower=5.0)):
        with pytest.raises(TypeError):
            build()
    for law, values in ((Laplace(a=2.0), (2.0, "S", 1.0, 4.0)),
                        (LaplaceMixture(a=1.0, lam=0.2, mu=0.3), (2.0, "W", 0.6, 1.0)),
                        (NoError(), (0.0, "S", 0.5, 2.0))):
        got = (law.beta, law.smoothness_class, law.c_lower, law.c_upper)
        assert got == pytest.approx(values, rel=1e-15)
    # equal laws key the same band workspace
    for one, two in ((Laplace(a=2.0), Laplace(2.0)),
                     (MIX, LaplaceMixture(MIX.a, 0.2, 0.3)), (NoError(), NoError())):
        assert one == two and hash(one) == hash(two)
    assert Laplace(a=2.0) != LaplaceMixture(a=2.0, lam=0.0, mu=0.0)


def test_mixture_without_a_shift_or_a_weight_is_laplace():
    a = MIX.a
    assert LaplaceMixture(a, 0.0, MIX.mu).ripple == 0.0
    assert LaplaceMixture(a, MIX.lam, 0.0).ripple == 0.0
    assert Laplace(a).ripple == NoError().ripple == 0.0
    x = np.linspace(-1.0, 1.0, 201)
    assert np.array_equal(LaplaceMixture(a, 0.0, MIX.mu).density(x),
                          Laplace(a).density(x))


def test_make_noise_dispatch():
    assert isinstance(make_noise("none"), NoError)
    assert make_noise("laplace", sigma_delta=0.1) == Laplace(a=math.sqrt(2.0) / 0.1)
    assert make_noise("mixture", sigma_delta=0.05, lam=0.2, mu=0.3) == MIX
    # the kind is checked first, so no sigma_delta is needed to reject it
    for kind in ("gauss", "noerror", "laplace_mixture", "Laplace"):
        with pytest.raises(ValueError, match="unknown noise kind"):
            make_noise(kind)
    with pytest.raises(ValueError, match="sigma_delta must be positive"):
        make_noise("laplace")
