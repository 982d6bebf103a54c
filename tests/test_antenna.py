"""Radiation model checks: closed-form limits, the beam-peak law, clamping."""

import numpy as np
import pytest

from lwcf.antenna import (
    SPEED_OF_LIGHT,
    AntennaParams,
    envelope_ratio,
    gain,
    peak_frequency,
)
from oracles import envelope_peak, gain_envelope, kernel_grid, link_rss

DEFAULT = AntennaParams(
    radiation_efficiency=1.0,
    aperture_length=0.15,
    attenuation=130.0,
    cutoff_frequency=100e9,
)


def test_params_validation():
    with pytest.raises(ValueError):
        AntennaParams(0.0, 0.15, 130.0, 100e9)
    with pytest.raises(ValueError):
        AntennaParams(1.5, 0.15, 130.0, 100e9)
    with pytest.raises(ValueError):
        AntennaParams(1.0, -0.15, 130.0, 100e9)
    with pytest.raises(ValueError):
        AntennaParams(1.0, 0.15, 130.0, 0.0)


def test_gain_domain_errors():
    with pytest.raises(ValueError):
        gain(DEFAULT, 100e9, np.pi / 2)          # at cutoff: evanescent
    with pytest.raises(ValueError):
        gain(DEFAULT, 50e9, np.pi / 2)
    with pytest.raises(ValueError):
        gain(DEFAULT, 150e9, 0.0)
    with pytest.raises(ValueError):
        gain(DEFAULT, 150e9, np.pi / 2 + 0.01)


def test_gain_scalar_and_broadcast():
    g = gain(DEFAULT, 150e9, 0.8)
    assert isinstance(g, float) and g > 0.0
    freqs = np.array([120e9, 150e9, 180e9])
    gs = gain(DEFAULT, freqs, 0.8)
    assert gs.shape == (3,)
    for f, gv in zip(freqs, gs):
        assert gv == gain(DEFAULT, float(f), 0.8)
    # frequency column against angle row broadcasts to a full grid
    grid = gain(DEFAULT, freqs[:, None], np.array([0.5, 1.0])[None, :])
    assert grid.shape == (3, 2)
    assert grid[1, 1] == gain(DEFAULT, 150e9, 1.0)


def test_broadside_near_cutoff_closed_form():
    """Just above cutoff at broadside the argument is purely imaginary, so
    the magnitude reduces to efficiency * L * sinh(aL/2) / (aL/2)."""
    p = DEFAULT
    y = p.attenuation * p.aperture_length / 2.0
    expected = p.radiation_efficiency * p.aperture_length * np.sinh(y) / y
    got = gain(p, p.cutoff_frequency * (1.0 + 1e-9), np.pi / 2)
    assert abs(got - expected) / expected < 1e-4


def test_small_argument_series_continuity():
    # the sinc evaluation switches to a series near the origin; a lossless
    # antenna pointed so the argument crosses that switch must stay smooth
    p = AntennaParams(1.0, 0.15, 1e-9, 100e9)
    f_star = peak_frequency(p.cutoff_frequency, 1.0)
    # at the peak the real part vanishes and the argument is ~ 1e-9 scale
    g_peak = gain(p, f_star, 1.0)
    assert abs(g_peak - p.aperture_length) / p.aperture_length < 1e-9
    g_near = gain(p, f_star * (1.0 + 1e-9), 1.0)
    assert abs(g_near - g_peak) / g_peak < 1e-6


def test_peak_frequency_values():
    assert peak_frequency(100e9, np.pi / 2) == pytest.approx(100e9)
    assert peak_frequency(100e9, np.pi / 6) == pytest.approx(200e9)
    out = peak_frequency(200e9, np.array([np.pi / 2, np.pi / 6]))
    assert np.allclose(out, [200e9, 400e9])
    with pytest.raises(ValueError):
        peak_frequency(100e9, 0.0)


def test_peak_law_matches_grid_argmax():
    """Fine-grid argmax of the gain lands on cutoff/sin(angle) for both
    waveguide bands.  The law is exact, so one grid step of slack suffices."""
    step = 1e5
    for cutoff in (100e9, 200e9):
        p = AntennaParams(1.0, 0.15, 130.0, cutoff)
        for theta in (0.35, 0.7, 1.1, np.pi / 2):
            predicted = peak_frequency(cutoff, theta)
            freqs = np.arange(0.95 * predicted, 1.05 * predicted, step)
            freqs = freqs[freqs > cutoff * (1 + 1e-9)]
            g = gain(p, freqs, theta)
            f_hat = freqs[np.argmax(g)]
            assert abs(f_hat - predicted) <= step + 1.0


def test_gain_decays_away_from_peak():
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(0.2, np.pi / 2)
        f_star = peak_frequency(DEFAULT.cutoff_frequency, theta)
        g_star = gain(DEFAULT, f_star, theta)
        g_far = gain(DEFAULT, 10.0 * f_star, theta)
        assert 0.0 < g_far < g_star


def test_link_rss_peak_inside_band():
    # peak at 2 * cutoff sits inside a [cutoff, 3 cutoff] band: evaluated there
    q, h2 = 2e-3, 1e-14
    theta = np.pi / 6
    expected = q * gain(DEFAULT, 200e9, theta) * h2
    got = link_rss(q, DEFAULT, theta, h2, band_upper=300e9)
    assert got == pytest.approx(expected, rel=1e-12)


def test_link_rss_clamps_to_band_edge():
    # band too short for the off-broadside peak: clamp to the upper edge
    q, h2 = 2e-3, 1e-14
    theta = np.pi / 6                       # peak would be 200 GHz
    expected = q * gain(DEFAULT, 150e9, theta) * h2
    got = link_rss(q, DEFAULT, theta, h2, band_upper=150e9)
    assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        link_rss(-1.0, DEFAULT, theta, h2, band_upper=150e9)


def test_link_rss_broadside_stays_defined():
    # broadside peak equals cutoff exactly, where the gain is undefined; the
    # evaluation point must be nudged above it instead of raising
    got = link_rss(1e-3, DEFAULT, np.pi / 2, 1e-14, band_upper=200e9)
    assert np.isfinite(got) and got > 0.0


def _complex_sinc(z):
    """sin(z)/z in complex arithmetic, with a series fallback near the origin:
    the gain kernel's former implementation, kept here as its oracle."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-6
    out[small] = 1.0 - z[small] ** 2 / 6.0
    out[~small] = np.sin(z[~small]) / z[~small]
    return out


def _oracle_gain(p, f, theta):
    k0 = 2.0 * np.pi * f / SPEED_OF_LIGHT
    beta = k0 * np.sqrt(1.0 - (p.cutoff_frequency / f) ** 2)
    z = (-1j * p.attenuation - k0 * np.cos(theta) + beta) * (p.aperture_length / 2.0)
    return p.radiation_efficiency * p.aperture_length * np.abs(_complex_sinc(z))


def test_gain_matches_complex_oracle():
    freqs, angles = kernel_grid(DEFAULT.cutoff_frequency)
    for eta, alpha in ((1.0, 130.0), (0.6, 1.0), (0.9, 400.0)):
        p = AntennaParams(eta, 0.15, alpha, DEFAULT.cutoff_frequency)
        got = gain(p, freqs, angles)
        want = _oracle_gain(p, freqs, angles)
        assert got.shape == (64, 64)
        assert np.max(np.abs(got - want) / want) <= 2e-15


def test_gain_lossless_beam_peak_is_exact():
    # zero attenuation at the beam peak puts z at (or within rounding of) the
    # origin: the series branch must return eta * L itself, never 0/0
    angles = np.linspace(0.3, 1.5, 25)
    for eta in (1.0, 0.8):
        p = AntennaParams(eta, 0.15, 0.0, 100e9)
        peaks = peak_frequency(p.cutoff_frequency, angles)
        assert np.all(gain(p, peaks, angles) == eta * p.aperture_length)
        for f, theta in zip(peaks, angles):
            assert gain(p, f, theta) == eta * p.aperture_length


def test_gain_grid_raises_no_floating_point_error():
    freqs, angles = kernel_grid(DEFAULT.cutoff_frequency)
    lossless = AntennaParams(1.0, 0.15, 0.0, 100e9)
    peak_angles = np.linspace(0.3, 1.5, 25)
    with np.errstate(all="raise"):
        assert np.all(np.isfinite(gain(DEFAULT, freqs, angles)))
        assert np.all(np.isfinite(gain(lossless, freqs, angles)))
        at_peak = gain(lossless, peak_frequency(100e9, peak_angles), peak_angles)
    assert np.all(at_peak == lossless.aperture_length)


def test_gain_envelope_brackets_gain():
    """e <= g exactly and g <= rho e to rounding, from just above cutoff to
    the 200 GHz band edge and from near endfire to broadside; e is the
    per-link envelope of ``oracles.gain_envelope``."""
    freqs, angles = kernel_grid(DEFAULT.cutoff_frequency)
    for alpha in (1.0, 3.0, 10.0, 130.0, 500.0):
        p = AntennaParams(0.9, 0.15, alpha, DEFAULT.cutoff_frequency)
        g = gain(p, freqs, angles)
        e = gain_envelope(p, freqs, angles)
        rho = envelope_ratio(p)
        b = alpha * p.aperture_length / 2.0
        assert rho == pytest.approx(1.0 / np.tanh(b), rel=1e-14)
        assert np.all(e > 0.0)
        assert np.all(e <= g)
        assert np.all(g <= rho * e * (1.0 + 4.0 * np.finfo(float).eps))
        if alpha == 1.0:
            # sin^2 a sweeps through 1 on the grid: the bound is attained
            assert np.max(g / e) >= rho * (1.0 - 1e-6)
    # at the defaults (b = 9.75) the bracket is ~7e-9 wide
    assert envelope_ratio(DEFAULT) - 1.0 == pytest.approx(6.8e-9, rel=0.01)


def test_gain_envelope_needs_attenuation():
    """Without attenuation the bracket is infinite and the envelope, which
    the envelope PSD evaluates, is refused."""
    lossless = AntennaParams(1.0, 0.15, 0.0, 100e9)
    assert envelope_ratio(lossless) == np.inf
    with pytest.raises(ValueError, match="positive attenuation"):
        gain_envelope(lossless, 150e9, 0.8)
    with pytest.raises(ValueError, match="positive attenuation"):
        gain_envelope(lossless, np.array([120e9, 150e9]), 0.8)


def test_gain_envelope_is_unimodal_in_frequency():
    """a(f) = (beta - k0 cos theta) L/2 increases strictly with f, so each
    link's envelope rises up to ``peak_frequency`` and falls after it.
    Checked on a dense grid from just above cutoff to twice the band, to
    rounding."""
    rng = np.random.default_rng(11)
    angles = np.concatenate([rng.uniform(1e-3, np.pi / 2.0, 40),
                             [1e-3, 0.3, np.pi / 2.0]])
    freqs = np.linspace(DEFAULT.cutoff_frequency + 20e6, 400e9, 20001)
    for alpha in (3.0, 130.0, 500.0):
        p = AntennaParams(0.9, 0.15, alpha, DEFAULT.cutoff_frequency)
        e = gain_envelope(p, freqs[:, None], angles[None, :])
        peak = peak_frequency(p.cutoff_frequency, angles)[None, :]
        step = np.diff(e, axis=0)
        tol = 1e-13 * e[1:]
        rising = freqs[1:, None] <= peak
        falling = freqs[:-1, None] >= peak
        assert rising.any() and falling.any()
        assert np.all(step[rising] >= -tol[rising])
        assert np.all(step[falling] <= tol[falling])
        # the peak value is the maximum over frequency for every angle
        top = envelope_peak(p)
        assert np.all(e <= top * (1.0 + 1e-15))
        inner = angles < np.pi / 2.0
        at_peak = gain_envelope(
            p, peak_frequency(p.cutoff_frequency, angles[inner]),
            angles[inner])
        assert np.allclose(at_peak, top, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="positive attenuation"):
        envelope_peak(AntennaParams(1.0, 0.15, 0.0, 100e9))
