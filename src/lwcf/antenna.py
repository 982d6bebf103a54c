"""Leaky-wave aperture radiation model.

A traveling-wave slot of length L radiates each frequency into a narrow
angular range set by the waveguide dispersion, so gain is a joint function
of frequency and elevation angle.  The model below exposes the gain law,
its wavenumbers, the ratio by which it can exceed its sin-free envelope,
and the closed-form frequency of maximum radiation for a given angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class AntennaParams:
    """Physical constants of one leaky-wave aperture."""

    radiation_efficiency: float  # dimensionless, in (0, 1]
    aperture_length: float       # m
    attenuation: float           # leakage attenuation along the slot, rad/m
    cutoff_frequency: float      # waveguide cutoff, Hz

    def __post_init__(self):
        if not 0.0 < self.radiation_efficiency <= 1.0:
            raise ValueError("radiation_efficiency must lie in (0, 1]")
        if self.aperture_length <= 0.0:
            raise ValueError("aperture_length must be positive")
        if self.attenuation < 0.0:
            raise ValueError("attenuation must be nonnegative")
        if self.cutoff_frequency <= 0.0:
            raise ValueError("cutoff_frequency must be positive")


def wavenumbers(params: AntennaParams, frequency, angle):
    """(k0, beta, cos theta) of the gain law: the free-space and guided
    wavenumbers at ``frequency``, which must exceed cutoff (the mode is
    evanescent otherwise), and the cosine of ``angle``, which must lie
    within (0, pi/2].  Each has the shape of its own argument."""
    f = np.asarray(frequency, dtype=float)
    theta = np.asarray(angle, dtype=float)
    if (f <= params.cutoff_frequency).any():
        raise ValueError("frequency must exceed the waveguide cutoff")
    if (theta <= 0.0).any() or (theta > np.pi / 2.0).any():
        raise ValueError("angle must lie in (0, pi/2]")
    k0 = 2.0 * np.pi * f / SPEED_OF_LIGHT
    return (k0, k0 * np.sqrt(1.0 - (params.cutoff_frequency / f) ** 2),
            np.cos(theta))


def gain(params: AntennaParams, frequency, angle):
    """Power gain of the aperture toward elevation ``angle`` at ``frequency``.

    ``frequency`` must be above cutoff and ``angle`` within (0, pi/2]
    (``wavenumbers``).  Both arguments broadcast together, and every
    element is computed from its own frequency and angle alone.

    The gain is g = eta L sqrt((sin^2 a + sinh^2 b) / (a^2 + b^2)) with
    a = (beta - k0 cos theta) L/2 and b = attenuation L/2.  Dropping the
    sin^2 a term gives the sin-free envelope e = eta L sinh b / sqrt(a^2 +
    b^2) with e <= g <= rho e, rho = sqrt(1 + 1/sinh^2 b) (see
    ``envelope_ratio``).  ``mimo.received_strength_psd`` evaluates the
    envelope in its own kernel, which shares no rounding with this one,
    so the computed values keep e <= g only to a few units in the last
    place (see there).
    """
    k0, beta, cos = wavenumbers(params, frequency, angle)
    # eta L |sin z / z| with z = a - ib, in reals: |sin z|^2 = sin^2 a + sinh^2 b
    half = params.aperture_length / 2.0
    a = beta - k0 * cos
    a *= half
    b = params.attenuation * half
    den = a * a + b * b
    num = np.sin(a)   # in place from here: one CE search evaluates ~1e7 points
    num *= num
    num += np.sinh(b) ** 2
    if b < 1e-6:
        # |z| -> 0 at a lossless beam peak: |1 - z^2/6|^2 is exact to ~1e-25
        small = den < 1e-12
        series = (1.0 - (a * a - b * b) / 6.0) ** 2 + (a * b / 3.0) ** 2
        num = np.where(small, series, num)
        den = np.where(small, 1.0, den)
    g = np.sqrt(num / den)
    g *= params.radiation_efficiency * params.aperture_length
    if g.ndim == 0:
        return float(g)
    return g


def envelope_ratio(params: AntennaParams) -> float:
    """rho = sqrt(1 + 1/sinh^2 b), b = attenuation L/2: the factor by which
    ``gain`` can exceed its envelope.  Infinite without attenuation."""
    b = params.attenuation * params.aperture_length / 2.0
    if b == 0.0:
        return np.inf
    return float(np.sqrt(1.0 + 1.0 / np.sinh(b) ** 2))


def peak_frequency(cutoff_frequency: float, angle):
    """Frequency where radiation toward ``angle`` peaks: cutoff / sin(angle).

    Equals cutoff at broadside (pi/2) and grows without bound as the angle
    approaches endfire; callers clamp the result into their operating band.
    """
    theta = np.asarray(angle, dtype=float)
    if np.any(theta <= 0.0) or np.any(theta > np.pi / 2.0):
        raise ValueError("angle must lie in (0, pi/2]")
    out = cutoff_frequency / np.sin(theta)
    if out.ndim == 0:
        return float(out)
    return out
