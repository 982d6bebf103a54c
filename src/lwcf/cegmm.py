"""Adaptive subchannel allocation by cross-entropy search with GMM proposals.

Candidate subchannel center frequencies are drawn from a Gaussian mixture,
each candidate is completed into a feasible plan (coherence-limited
bandwidths, overlap resolution, spectrum cap), and the mixture is refit to
the elite candidates.  The number of mixture components is reselected every
iteration by BIC, which lets the proposal density track multimodal reward
landscapes; pinning the component budget to one recovers the traditional
single-Gaussian cross-entropy method.

Plan constraints, enforced for every emitted plan:
  * total width within the spectrum budget,
  * pairwise disjoint in-band intervals,
  * per-UE received signal PSD above the access threshold at centers and edges,
  * per-UE edge-to-edge PSD gap below the coherence gap (checked on the
    search grid).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .antenna import SPEED_OF_LIGHT, AntennaParams, envelope_ratio
from .mimo import (SingularChannel, rate_densities, received_strength_psd,
                   require_zf_shape)
from .scenario import Scenario

# sub-Hz slack for interval comparisons on ~1e11 Hz magnitudes
FREQ_TOL = 1e-3


class InfeasibleBand(Exception):
    """No sampled center frequency ever met the access threshold in-band."""


@dataclass(frozen=True)
class SubchannelPlan:
    """Ordered disjoint subchannels with their achieved rates.  A plan has
    no rate floor to miss, so it is always ``feasible`` (the flag a
    ClusterPlan carries as a field)."""

    subchannels: tuple[tuple[float, float], ...]   # (center Hz, width Hz)
    achieved_rate: float                           # bit/s
    subchannel_rates: tuple[float, ...]            # bit/s, aligned with subchannels
    feasible = True

    @property
    def total_rate(self) -> float:
        """The achieved rate under the name ClusterPlan also carries."""
        return self.achieved_rate


@dataclass(frozen=True)
class Gmm:
    """One-dimensional Gaussian mixture over center frequencies.  Each
    field is stored as a float array; a float array given is kept as is."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), float))
        w = self.weights
        if w.size == 0 or np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        if np.any(self.variances <= 0.0):
            raise ValueError("variances must be positive")
        if not (w.size == self.means.size == self.variances.size):
            raise ValueError("component arrays must have equal length")

    @property
    def num_components(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class CeHyperparams:
    num_samples: int = 50        # candidates per iteration
    num_elites: int = 10
    max_iterations: int = 30
    max_components: int = 5      # BIC model search upper bound
    smoothing: float = 0.7       # weight of the freshly fitted parameters
    grid_step: float = 10e6      # Hz, bandwidth search resolution
    num_subchannels: int = 4

    def __post_init__(self):
        if self.num_samples < 1 or self.num_elites < 1:
            raise ValueError("num_samples and num_elites must be >= 1")
        if self.num_elites > self.num_samples:
            raise ValueError("num_elites cannot exceed num_samples")
        if self.max_iterations < 1 or self.max_components < 1:
            raise ValueError("max_iterations and max_components must be >= 1")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")
        if self.grid_step <= 0.0 or self.num_subchannels < 1:
            raise ValueError("grid_step and num_subchannels must be positive")


@dataclass(frozen=True)
class QosConfig:
    min_rx_psd: float               # W/Hz, access threshold on received PSD
    coherence_gap_db: float         # dB, max edge-to-edge PSD gap
    min_cluster_avg_rate: float = 50e6   # bit/s per UE, cluster admission target

    def __post_init__(self):
        if self.min_rx_psd < 0.0 or self.coherence_gap_db <= 0.0:
            raise ValueError("min_rx_psd must be >= 0 and coherence_gap_db > 0")
        if self.min_cluster_avg_rate < 0.0:
            raise ValueError("min_cluster_avg_rate must be nonnegative")


# ---------------------------------------------------------------------------
# mixture fitting
# ---------------------------------------------------------------------------

def _mixture_log_densities(log_weights, variances: np.ndarray,
                           squares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log of weight_l * N(x | mean_l, var_l), shape (n, components), and
    its log-sum-exp over the components, shape (n,), from the squared
    deviations ``squares`` = (x - mean_l) ** 2 of the samples: the one
    density evaluation of ``em_fit`` and ``gmm_log_likelihood``, so the two
    give the same bits."""
    log_comp = log_weights + -0.5 * (np.log(2.0 * np.pi * variances)
                                     + squares / variances)
    peak = np.maximum.reduce(log_comp, axis=1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    log_mix = peak[:, 0] + np.log(np.add.reduce(np.exp(log_comp - peak),
                                                axis=1))
    return log_comp, log_mix


def gmm_log_likelihood(gmm: Gmm, values) -> float:
    """Total log likelihood of the values under the mixture."""
    with np.errstate(divide="ignore"):
        log_weights = np.log(gmm.weights)
    squares = (np.asarray(values, float)[:, None] - gmm.means) ** 2
    _, log_mix = _mixture_log_densities(log_weights, gmm.variances, squares)
    return float(np.add.reduce(log_mix))


def sample_gmm(gmm: Gmm, n: int, rng: np.random.Generator,
               band: tuple[float, float]) -> np.ndarray:
    """Draw n values in ``band``; out-of-band draws are redrawn.

    Rejection is capped (1000 rounds) and any stragglers are clipped to the
    band, so sampling terminates even for mixtures with negligible in-band
    mass.
    """
    weights = gmm.weights / gmm.weights.sum()
    comp = rng.choice(gmm.num_components, size=n, p=weights)
    x = rng.normal(gmm.means[comp], np.sqrt(gmm.variances[comp]))
    lo, hi = band
    for _ in range(1000):
        bad = (x < lo) | (x > hi)
        if not np.any(bad):
            break
        comp = rng.choice(gmm.num_components, size=int(bad.sum()), p=weights)
        x[bad] = rng.normal(gmm.means[comp], np.sqrt(gmm.variances[comp]))
    return np.clip(x, lo, hi)


EM_MAX_ITER = 100   # EM iterations per fit


def em_fit(values, num_components: int, init: Gmm, var_floor: float = 0.0,
           tol: float = 1e-6, max_iter: int = EM_MAX_ITER,
           history: list | None = None) -> Gmm:
    """Fit a mixture to scalar values by EM, starting from ``init``.

    Components whose responsibility mass underflows are dropped and the fit
    continues with fewer components.  Variances are floored at ``var_floor``
    (plus a tiny absolute guard against exact collapse).  When ``history``
    is a list, the log-likelihood evaluated at each iteration is appended
    to it; a fit that converged made fewer than ``max_iter`` entries, and
    its last one is the log-likelihood of the returned mixture.
    """
    x = np.asarray(values, float)
    n = x.size
    if n == 0:
        raise ValueError("cannot fit a mixture to an empty sample")
    weights, means, variances = init.weights, init.means, init.variances
    if weights.size != num_components:
        raise ValueError("init must carry num_components components")
    tiny_var = max(var_floor, 1e-300)
    column = x[:, None]
    # the squared deviations of the M-step are those of the next E-step
    squares = (column - means) ** 2

    ll_prev = -np.inf
    # a zero initial weight has log weight -inf; later weights are positive
    with np.errstate(divide="ignore"):
        for _ in range(max_iter):
            log_comp, log_mix = _mixture_log_densities(
                np.log(weights), variances, squares)
            ll = float(np.add.reduce(log_mix))
            if history is not None:
                history.append(ll)
            if (math.isfinite(ll_prev)
                    and ll - ll_prev < tol * max(abs(ll_prev), 1e-12)):
                break
            ll_prev = ll
            resp = np.exp(log_comp - log_mix[:, None])
            mass = np.add.reduce(resp, axis=0)
            alive = mass > n * 1e-12
            if not alive.all():
                if not alive.any():
                    alive[int(np.argmax(mass))] = True
                resp = resp[:, alive]
                mass = mass[alive]
                ll_prev = -np.inf   # not comparable across a removal
            means = resp.T @ x / mass
            squares = (column - means) ** 2
            variances = np.add.reduce(resp * squares, axis=0) / mass
            variances = np.maximum(variances, tiny_var)
            weights = mass / n
            weights = weights / np.add.reduce(weights)
    return Gmm(weights, means, variances)


def bic(gmm: Gmm, values, log_likelihood: float | None = None) -> float:
    """Bayesian information criterion: 3*components*ln(n) - 2*loglik, with
    the ``gmm_log_likelihood`` of the values unless ``log_likelihood``
    gives it."""
    n = np.asarray(values, float).size
    if log_likelihood is None:
        log_likelihood = gmm_log_likelihood(gmm, values)
    return 3.0 * gmm.num_components * np.log(n) - 2.0 * log_likelihood


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

# Slack of the envelope bounds of ``_EdgeCheck``: relative on PSDs and
# absolute on dB gaps, far above the ~1e-15 rounding of either gain kernel.
ENVELOPE_REL_TOL = 1e-12
ENVELOPE_DB_TOL = 1e-9


def _edges_ok(scenario: Scenario, params: AntennaParams, lo, hi,
              qos: QosConfig) -> np.ndarray:
    """One flag per interval of the 1-D edge arrays ``lo``/``hi``, from the
    exact PSDs: every UE's received PSD is positive and meets the access
    threshold at both edges, and its edge-to-edge gap stays below the
    coherence limit.  The exact predicate: ``_EdgeCheck.ok`` hands it the
    intervals its bounds leave unsure, and ``check_coherence`` asks it
    alone."""
    psd_lo = received_strength_psd(scenario, params, lo)
    psd_hi = received_strength_psd(scenario, params, hi)
    ok = (np.all(psd_lo >= qos.min_rx_psd, axis=1)
          & np.all(psd_hi >= qos.min_rx_psd, axis=1)
          & np.all(psd_lo > 0.0, axis=1) & np.all(psd_hi > 0.0, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(10.0 * np.log10(psd_lo) - 10.0 * np.log10(psd_hi))
    return ok & np.all(gap < qos.coherence_gap_db, axis=1)


TABLE_CELL = 80e6    # Hz, cell width of an ``_EdgeCheck``'s table


@dataclass(frozen=True)
class _EdgeCheck:
    """The edge-validity check of one (scenario, params, band, qos): a
    table of every UE's envelope PSD at uniform cell edges from one cell
    above cutoff to the band top, with a relative interpolation remainder
    per cell, the margins of one bound rule (``_verdict``), and the one
    predicate ``ok`` that reads them.  ``_edge_table`` builds one;
    ``ce_search`` builds one per search and hands it down, and each
    one-item wrapper builds its own.

    The remainder.  One link's envelope is e = eta L sinh b / sqrt(a^2 +
    b^2), with a = kappa f (n - cos theta), kappa = pi L / c, n = sqrt(1 -
    (fc/f)^2) and b = attenuation L/2.  Then a' = kappa (1/n - cos theta)
    lies in (0, kappa/n] and |a''| = kappa fc^2 / (f^3 n^3), both falling in
    f.  Since |a| / (a^2 + b^2) <= 1/(2b) and |2a^2 - b^2| / (a^2 + b^2)^2
    <= 1/b^2, e' = -e a a' / (a^2 + b^2) and e'' = e a'^2 (2a^2 - b^2) /
    (a^2 + b^2)^2 - e a a'' / (a^2 + b^2) give |e'| <= e a' / (2b) and
    |e''| <= e (a'^2 / b^2 + |a''| / (2b)).  Over a cell [f0, f0 + h] the
    first bound gives e <= gamma e(f0), gamma = exp(h kappa / (2 b n0)).
    A UE's PSD is P = s sum_m w_m e_m / f^2 with positive weights, and
    (e/f^2)'' = e''/f^2 - 4e'/f^3 + 6e/f^4, so on the cell |P''| <= gamma
    q(f0) P(f0) with q = a'^2/b^2 + |a''|/(2b) + 2a'/(b f) + 6/f^2 at a' =
    kappa/n.  Linear interpolation between the edge values misses P by at
    most (h^2/8) sup |P''|, i.e. by ``rem`` times the PSD at the cell's
    lower edge.  A cell's ``rem`` is infinite (it decides nothing) when
    the computed envelope in it may be off by more than eps / 4: the
    rounding of a is relatively at most ~pi L u f (1/n + 4) / (c b), u the
    unit roundoff, so it grows without bound at cutoff (3-11 MHz above it
    at the defaults).

    The bound rule.  The received PSD lies in the sin-free envelope
    bracket env <= psd <= rho env UE by UE (``received_strength_psd``),
    rho = ``envelope_ratio``.  With eps = ``ENVELOPE_REL_TOL`` and the dB
    slack s = 10 log10 rho + ``ENVELOPE_DB_TOL`` covering rounding, lower
    and upper bounds on every UE's envelope PSD at an interval's two edges
    prove it good when the lower bounds times (1 - eps) reach the access
    threshold and each edge's upper bound stays below the other's lower
    bound times 10^((limit - s)/10) (1 - eps)/(1 + eps) (``max_ratio``);
    they prove it bad when some UE's upper bound at an edge times rho (1 +
    eps) misses the threshold times (1 - eps), or one edge's lower bound
    exceeds the other's upper bound times 10^((limit + s)/10) (1 + eps)/(1
    - eps) (``min_ratio``).  The envelope decides nothing (``envelope``
    False) without attenuation, where rho is infinite, or when s reaches
    the coherence limit.

    ``ok`` decides in tiers, each on the intervals the one before leaves
    unsure; the callers look each step up in ``certified`` first:

    * ``certified`` bounds each cell by the min and max of its edge values
      minus and plus the remainder (``lower_r``, ``upper``) and certifies
      a pair of cells at once by the good rule;
    * ``interpolated`` bounds each interval edge by the interpolant minus
      and plus the remainder and proves an interval good or bad;
    * the envelope PSDs of the interval edges, when the envelope decides,
      are their own bounds;
    * ``_edges_ok`` decides the rest from the exact PSDs.

    A check without usable cells, where the envelope can decide nothing
    or the band ends below the first cell, certifies nothing and
    interpolates nothing.
    """

    scenario: Scenario
    params: AntennaParams
    band: tuple[float, float]
    qos: QosConfig
    edges: np.ndarray     # (C + 1,) cell edges, Hz
    fences: np.ndarray    # (C + 3,) the edges between -inf and inf
    values: np.ndarray    # (C + 1, K) envelope PSD at the edges
    rem: np.ndarray       # (C + 1,) relative remainder; cell C, outside
                          # the table, is infinite
    upper: np.ndarray     # (C + 1, K) cell upper bound; cell C is unusable
    lower_r: np.ndarray   # (C + 1, K) lower bound times ``max_ratio``
    min_bound: float      # a lower bound >= it clears the access threshold
    max_bound: float      # an upper bound below it misses the threshold
    max_ratio: float      # largest upper/lower ratio that clears the gap
    min_ratio: float      # smallest lower/upper ratio that opens it
    envelope: bool        # the envelope bracket can decide an interval

    def _cells(self, f: np.ndarray) -> np.ndarray:
        """The cell of each frequency, ``searchsorted(edges, f) - 1``: cell
        c holds (edges[c], edges[c + 1]]; a frequency outside the table
        gets cell -1 or C, both the unusable last one.  The cell comes from
        the position of f on the uniform grid and is then moved by one
        where the stored edges say the rounding put it in a neighbour."""
        k = (f - self.edges[0]) / (self.edges[1] - self.edges[0]) + 1.0
        np.maximum(k, 0.0, out=k)
        np.minimum(k, self.edges.size, out=k)
        k = k.astype(np.intp)
        k += self.fences.take(k + 1) < f
        k -= self.fences.take(k) >= f
        k -= 1
        return k

    def certified(self, lo, hi) -> np.ndarray:
        """True for each interval the cells of its two edges certify good.

        A certificate depends only on the cell pair, so each run of equal
        consecutive pairs (the steps of one search stay ~8 steps on a
        pair) is decided once and its answer repeated."""
        i = self._cells(np.asarray(lo, dtype=float))
        j = self._cells(np.asarray(hi, dtype=float))
        # +1 makes the cells -1 .. C non-negative digits of the pair key
        key = (i + 1) * (self.edges.size + 1) + (j + 1)
        new = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        i, j = i[new], j[new]
        up, low = self.upper, self.lower_r
        ok = ((up.take(i, axis=0) < low.take(j, axis=0))
              & (up.take(j, axis=0) < low.take(i, axis=0))).all(axis=1)
        return ok[np.cumsum(new) - 1]

    def _verdict(self, low, up) -> tuple[np.ndarray, np.ndarray]:
        """(good, bad) per interval from lower and upper bounds (2N, K) on
        every UE's envelope PSD at the N lower edges, then the N upper
        edges, by the bound rule (see the class); neither is unsure."""
        n = low.shape[0] // 2
        low_a, low_b, up_a, up_b = low[:n], low[n:], up[:n], up[n:]
        good = ((low_a >= self.min_bound) & (low_b >= self.min_bound)
                & (up_a < low_b * self.max_ratio)
                & (up_b < low_a * self.max_ratio)).all(axis=1)
        bad = ((up_a < self.max_bound) | (up_b < self.max_bound)
               | (low_a > up_b * self.min_ratio)
               | (low_b > up_a * self.min_ratio)).any(axis=1)
        return good, bad

    def interpolated(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """(good, bad) per interval: ``_verdict`` on the interpolant of
        every UE's envelope PSD at its two edges minus and plus the
        remainder.  An edge outside the table or in a cell with an
        infinite remainder decides neither."""
        f = np.concatenate([np.asarray(lo, dtype=float),
                            np.asarray(hi, dtype=float)])
        c = self._cells(f)
        # Sterbenz: f - edges[c] and the cell width are exact; a cell
        # outside the table (-1 and C + 1 wrap to C and 0) gets a finite
        # nonsense weight and an infinite remainder
        at = self.edges.take(c)
        t = (f - at) / (self.edges.take(c + 1, mode="wrap") - at)
        low = self.values.take(c, axis=0)
        mid = self.values.take(c + 1, axis=0, mode="wrap")
        mid -= low
        mid *= t[:, None]
        mid += low
        low *= self.rem.take(c)[:, None]
        up = mid + low
        np.subtract(mid, low, out=low)
        return self._verdict(low, up)

    def ok(self, lo, hi) -> np.ndarray:
        """One flag per interval of the 1-D edge arrays ``lo``/``hi``, that
        of ``_edges_ok``: ``interpolated`` decides what it proves, then,
        when the envelope decides, one envelope ``received_strength_psd``
        call on the lower and upper edges of the unsure rest takes
        ``_verdict`` as its own bounds, and ``_edges_ok`` decides what is
        still unsure from the exact PSDs."""
        good, bad = self.interpolated(lo, hi)
        unsure = np.flatnonzero(~good & ~bad)
        if unsure.size and self.envelope:
            env = received_strength_psd(
                self.scenario, self.params,
                np.concatenate([lo[unsure], hi[unsure]]), envelope=True)
            sure, bad = self._verdict(env, env)
            good[unsure] = sure
            unsure = unsure[~sure & ~bad]
        if unsure.size:
            good[unsure] = _edges_ok(self.scenario, self.params, lo[unsure],
                                     hi[unsure], self.qos)
        return good


def _edge_table(scenario: Scenario, params: AntennaParams,
                band: tuple[float, float], qos: QosConfig) -> _EdgeCheck:
    """The ``_EdgeCheck`` of (scenario, params, band, qos), its table up to
    ``band[1]`` from one envelope ``received_strength_psd`` call on its
    edges.  When the envelope can decide nothing or the band holds no cell
    above the first edge, the table is one cell past the band with
    infinite remainders, built without a PSD call."""
    eps = ENVELOPE_REL_TOL
    rho = envelope_ratio(params)
    slack_db = 10.0 * np.log10(rho) + ENVELOPE_DB_TOL
    envelope = bool(slack_db < qos.coherence_gap_db)
    if not envelope:
        # finite positive ratios keep the interpolated bounds free of nan
        rho, slack_db = 1.0, 0.0
    fc = params.cutoff_frequency
    first = fc + TABLE_CELL
    cells = int(np.ceil((band[1] - first) / TABLE_CELL))
    if not envelope or cells < 1:
        # no usable cell: every bound is infinite
        edges = np.array([first, first + TABLE_CELL])
        values = np.ones((2, scenario.num_ues))
        rem = np.full(2, np.inf)
    else:
        edges = np.linspace(first, band[1], cells + 1)
        values = received_strength_psd(scenario, params, edges, envelope=True)
        # the remainder of each cell from its lower edge f0 (see the class)
        f0, h = edges[:-1], np.diff(edges)
        n0 = np.sqrt(1.0 - (fc / f0) ** 2)
        kappa = np.pi * params.aperture_length / SPEED_OF_LIGHT
        b = params.attenuation * params.aperture_length / 2.0
        slope = kappa / n0
        q = (slope * slope / (b * b)
             + kappa * fc * fc / (2.0 * b * (f0 * n0) ** 3)
             + 2.0 * slope / (b * f0) + 6.0 / (f0 * f0))
        with np.errstate(over="ignore"):
            rem = h * h / 8.0 * np.exp(h * slope / (2.0 * b)) * q
        rounding = (np.pi * params.aperture_length * np.finfo(float).eps
                    / (2.0 * SPEED_OF_LIGHT * b) * edges[1:]
                    * (1.0 / n0 + 4.0))
        rem = np.append(np.where(rounding <= eps / 4.0, rem, np.inf), np.inf)
    # cell bounds: the edge values' min and max, minus and plus remainder
    # (cell C pairs its edge with edge 0, under its infinite remainder)
    following = np.roll(values, -1, axis=0)
    spread = values * rem[:, None]
    lower = np.minimum(values, following) - spread
    upper = np.maximum(values, following) + spread
    min_bound = qos.min_rx_psd / (1.0 - eps)
    max_ratio = (10.0 ** ((qos.coherence_gap_db - slack_db) / 10.0)
                 * (1.0 - eps) / (1.0 + eps))
    usable = (np.isfinite(rem) & (lower >= min_bound).all(axis=1))[:, None]
    return _EdgeCheck(
        scenario, params, band, qos,
        edges, np.concatenate([[-np.inf], edges, [np.inf]]), values, rem,
        np.where(usable, upper, np.inf),
        np.where(usable, lower * max_ratio, 0.0), min_bound,
        qos.min_rx_psd * (1.0 - eps) / (rho * (1.0 + eps)), max_ratio,
        10.0 ** ((qos.coherence_gap_db + slack_db) / 10.0)
        * (1.0 + eps) / (1.0 - eps), envelope)


def _in_band(lo, hi, band: tuple[float, float], cutoff: float):
    """Elementwise: the edges lie in the band, strictly above the cutoff."""
    return ((lo >= band[0] - FREQ_TOL) & (lo > cutoff + FREQ_TOL)
            & (hi <= band[1] + FREQ_TOL))


# steps per search in the first and later blocks after the certified ones
EDGE_BLOCKS = (8, 32)
# intervals per shared check of the lock-step searches, which bounds the
# temporaries: ``ok`` calls (2N x K floats each in ``_verdict``; its
# envelope and exact PSDs, of the unsure steps alone, are chunked at
# ``STACK_POINTS`` by ``received_strength_psd``) and ``certified`` calls
TIER_BATCH = 1024
LOOKUP_BATCH = 4096


def _advance(interval, start, max_steps, blocks, batch, check) -> None:
    """Move each search's first undecided step ``start`` past the steps
    (edges ``interval(ids, steps)``) that pass ``check(lo, hi)``, in
    lock-step: each round checks the next block of steps of every live
    search, in shared calls of at most ``batch`` intervals; a search
    leaves at its first failing step or its last step, ``max_steps``."""
    live = np.flatnonzero(start <= max_steps)
    for block in blocks:
        if not live.size:
            return
        still, per_call = [], max(1, batch // block)
        for g in range(0, live.size, per_call):
            ids = live[g:g + per_call]
            counts = np.minimum(block, max_steps[ids] - start[ids] + 1)
            offsets = np.cumsum(counts) - counts
            steps = np.arange(counts.sum()) - np.repeat(offsets - start[ids],
                                                        counts)
            ok = check(*interval(np.repeat(ids, counts), steps))
            miss = np.where(ok, ok.size, np.arange(ok.size))
            passed = np.minimum(np.minimum.reduceat(miss, offsets) - offsets,
                                counts)
            start[ids] += passed
            still.append(ids[(passed == counts)
                             & (start[ids] <= max_steps[ids])])
        live = np.concatenate(still)


def bandwidth_searches(centers, check: _EdgeCheck, grid_step: float,
                       max_bandwidth: float | None = None) -> np.ndarray:
    """Widest symmetric bandwidth around each of the 1-D ``centers`` that
    keeps the edges valid, all searches grown together by ``_advance``.

    A search grows in ``grid_step`` increments and stops at the first grid
    step whose edges leave the band, violate the access threshold, or open
    a PSD gap at or beyond the coherence limit; its width is 0.0 if already
    the first step fails.  The access threshold at the center itself is the
    caller's responsibility.

    Steps are decided in blocks, which is equivalent to stepwise growth
    because each search still stops at its first violating step, in
    tiers.  (1) Cell pairs: ``check.certified`` looks steps up in chunks
    that double from 64, up to each search's first step it does not
    certify; a certified step is good under the exact checks, as the
    bounds of its edge cells hold for the envelope at every edge in them
    and pass the good rule of ``_EdgeCheck``.  From there ``check.ok``
    takes blocks of 8, then 32 steps (``EDGE_BLOCKS``), in shared calls of
    up to ``TIER_BATCH`` steps: its bounds decide a step (2) from the
    interpolant in ``interpolated`` and (3) from the envelope PSDs of the
    steps that leaves unsure, both through ``_verdict``, and (4)
    ``_edges_ok`` decides the rest from the exact PSDs.  The width is that
    of the exact checks.  ``check`` is the ``_EdgeCheck`` of the search,
    which also gives the scenario, antenna, band and QoS.
    """
    band, c = check.band, np.asarray(centers, dtype=float)
    # steps that keep the interval in-band (and strictly above cutoff)
    room = np.minimum(np.minimum(c - band[0], band[1] - c),
                      c - check.params.cutoff_frequency - 2.0 * FREQ_TOL)
    limit = 2.0 * room
    if max_bandwidth is not None:
        limit = np.minimum(limit, max_bandwidth)
    # absolute fudge well under FREQ_TOL so float noise cannot add a step
    # that would push an edge onto the cutoff itself
    max_steps = np.floor((limit + FREQ_TOL / 2.0) / grid_step).astype(int)
    start = np.ones(c.size, dtype=int)

    def grown(ids, steps):
        half = steps * grid_step / 2.0
        return c[ids] - half, c[ids] + half

    _advance(grown, start, max_steps, (64 << r for r in itertools.count()),
             LOOKUP_BATCH, check.certified)
    _advance(grown, start, max_steps, itertools.chain(
        EDGE_BLOCKS[:1], itertools.repeat(EDGE_BLOCKS[1])), TIER_BATCH,
        check.ok)
    return (start - 1) * grid_step


def bandwidth_search(center: float, scenario: Scenario, params: AntennaParams,
                     band: tuple[float, float], qos: QosConfig,
                     grid_step: float,
                     max_bandwidth: float | None = None) -> float:
    """The one-center case of ``bandwidth_searches``, with its own
    ``_edge_table``."""
    return float(bandwidth_searches(
        [center], _edge_table(scenario, params, band, qos), grid_step,
        max_bandwidth)[0])


def _truncate(candidates, scenario: Scenario, params: AntennaParams,
              total_bandwidth: float, rss: dict | None) -> list[list]:
    """The truncation and budget passes of ``resolve_overlaps``: a record
    [lo, hi, moved] per interval left, moved if its edges need re-checking."""
    items = [[c - w / 2.0, c + w / 2.0, False]
             for c, w in candidates if w > 0.0]
    rss_cache = dict(rss or {})

    def rss_of(iv) -> float:
        """RSS of ``iv``, one of the current ``items``.  A miss prices the
        midpoints of every current interval without one in one array
        call."""
        mid = (iv[0] + iv[1]) / 2.0
        if mid not in rss_cache:
            missing = [(a + b) / 2.0 for a, b, _ in items
                       if (a + b) / 2.0 not in rss_cache]
            psd = received_strength_psd(scenario, params, missing)
            rss_cache.update(zip(missing, map(float, psd.sum(axis=1))))
        return rss_cache[mid]

    # pairwise truncation until disjoint; the stable sort keeps ties in
    # candidate order
    while True:
        items.sort(key=lambda iv: iv[0])
        clash = next((i for i in range(len(items) - 1)
                      if items[i + 1][0] < items[i][1] - FREQ_TOL), None)
        if clash is None:
            break
        a, b = items[clash], items[clash + 1]
        winner, loser = (a, b) if rss_of(a) >= rss_of(b) else (b, a)
        if loser[0] < winner[0] and loser[1] > winner[1]:
            # loser straddles the winner: keep its wider remaining side
            if winner[0] - loser[0] >= loser[1] - winner[1]:
                loser[1] = winner[0]
            else:
                loser[0] = winner[1]
        elif loser[0] < winner[0]:
            loser[1] = winner[0]
        else:
            loser[0] = winner[1]
        loser[2] = True
        items = [iv for iv in items if iv[1] - iv[0] > FREQ_TOL]

    # spectrum budget: shrink the lowest-RSS intervals first (the stable
    # sort breaks RSS ties by position)
    excess = sum(hi - lo for lo, hi, _ in items) - total_bandwidth
    if excess > FREQ_TOL:
        for iv in sorted(items, key=rss_of):
            if excess <= FREQ_TOL:
                break
            cut = min(iv[1] - iv[0], excess)
            iv[0] += cut / 2.0
            iv[1] -= cut / 2.0
            iv[2] = True
            excess -= cut
        items = [iv for iv in items if iv[1] - iv[0] > FREQ_TOL]
    return items


def _revalidate(record_lists, check: _EdgeCheck,
                grid_step: float) -> list[list[tuple[float, float]]]:
    """The (center, width) plan of each list of ``_truncate`` records,
    sorted by center: each moved record shrunk symmetrically by half grid
    steps to its first step in band, wider than ``FREQ_TOL`` and with valid
    edges, or dropped if it vanishes first.  All shrinks step together
    through ``_advance``, which passes failing steps: step 0 alone (it
    nearly always holds), then 32 at a time, batched as in growth.  A step
    ``check.certified`` certifies holds, and ``check.ok`` decides the rest
    by its interpolated and envelope bounds, then the exact PSDs, so each
    kept step is the one a stepwise exact scan keeps."""
    moved = [iv for records in record_lists for iv in records if iv[2]]
    lo, hi = np.array([iv[:2] for iv in moved], dtype=float).reshape(-1, 2).T
    width, mid = hi - lo, (lo + hi) / 2.0
    max_steps = np.ceil(width / grid_step - 1e-9).astype(int)
    start = np.zeros(len(moved), dtype=int)

    def shrunk(ids, steps):
        half = np.maximum(width[ids] / 2.0 - steps * (grid_step / 2.0), 0.0)
        return mid[ids] - half, mid[ids] + half

    def fails(a, b):
        ok = (b - a > FREQ_TOL) & _in_band(a, b, check.band,
                                           check.params.cutoff_frequency)
        rest = np.flatnonzero(ok & ~check.certified(a, b))
        if rest.size:
            ok[rest] = check.ok(a[rest], b[rest])
        return ~ok

    _advance(shrunk, start, max_steps,
             itertools.chain([1], itertools.repeat(32)), TIER_BATCH, fails)
    lo, hi = shrunk(np.arange(start.size), np.minimum(start, max_steps))
    fixed = zip((start <= max_steps).tolist(), lo.tolist(), hi.tolist())
    edges = [[next(fixed) if m else (True, a, b) for a, b, m in records]
             for records in record_lists]
    return [sorted((((a + b) / 2.0, b - a) for keep, a, b in plan if keep),
                   key=lambda cw: cw[0]) for plan in edges]


def resolve_overlaps(candidates, scenario: Scenario, params: AntennaParams,
                     band: tuple[float, float], qos: QosConfig,
                     grid_step: float, total_bandwidth: float,
                     rss: dict[float, float] | None = None,
                     ) -> list[tuple[float, float]]:
    """Make the candidate subchannels disjoint and fit the spectrum budget.

    Contested spectrum goes to the interval with the larger total received
    signal PSD at its center; the loser is truncated at the winner's
    boundary (a fully swallowed loser is dropped).  If the summed width then
    still exceeds the budget, the lowest-RSS intervals are shrunk first
    until it fits (``_truncate``).  Any interval whose edges moved is
    re-validated against the edge constraints and shrunk further if needed
    (``_revalidate``), so the output plan satisfies the same edge checks as
    freshly searched bandwidths; the call builds its own ``_edge_table``
    for ``_revalidate``.

    An interval's RSS is the UE sum of the received PSD at its midpoint
    ``(lo + hi) / 2``, cached by that frequency.  ``rss`` maps frequencies
    to RSS values already priced, the row sums of an array
    ``received_strength_psd`` call (``evaluate_candidates`` hands over those
    of its access PSDs); a row is the bits of a one-frequency call, so a
    seeded value is the one a miss would price.  The call copies ``rss``.
    """
    records = _truncate(candidates, scenario, params, total_bandwidth, rss)
    return _revalidate([records], _edge_table(scenario, params, band, qos),
                       grid_step)[0]


def validate_plan(subchannels, band: tuple[float, float], total_bandwidth: float,
                  cutoff: float) -> None:
    """Raise ValueError unless widths, band membership, disjointness and the
    spectrum budget all hold."""
    total = 0.0
    intervals = []
    for center, width in subchannels:
        if width < 0.0 or center < 0.0:
            raise ValueError("negative subchannel center or width")
        lo, hi = center - width / 2.0, center + width / 2.0
        if not _in_band(lo, hi, band, cutoff):
            raise ValueError(f"subchannel [{lo}, {hi}] leaves the band")
        intervals.append((lo, hi))
        total += width
    if total > total_bandwidth + FREQ_TOL:
        raise ValueError(f"total width {total} exceeds budget {total_bandwidth}")
    intervals.sort()
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if lo < hi - FREQ_TOL:
            raise ValueError("subchannels overlap")


def check_coherence(subchannels, scenario: Scenario, params: AntennaParams,
                    qos: QosConfig) -> bool:
    """True when every subchannel passes the edge PSD checks, decided by
    ``_edges_ok`` from the exact PSDs alone (no ``_EdgeCheck`` is built)."""
    edges = [(c - w / 2.0, c + w / 2.0) for c, w in subchannels if w > 0.0]
    lo, hi = np.array(edges, float).reshape(-1, 2).T
    return bool(np.all(_edges_ok(scenario, params, lo, hi, qos)))


# ---------------------------------------------------------------------------
# cross-entropy loop
# ---------------------------------------------------------------------------

def initial_proposal(band: tuple[float, float], num_samples: int,
                     max_components: int) -> Gmm:
    """Evenly spread mixture over the band, collapsed to the component budget.

    Conceptually one narrow Gaussian per candidate slot, moment-matched in
    contiguous groups down to min(num_samples, max_components) components.
    """
    lo, hi = band
    width = hi - lo
    n = num_samples
    mu = lo + (np.arange(1, n + 1) - 0.5) * width / n
    var = np.full(n, width ** 2 / (4.0 * n ** 2))
    w = np.full(n, 1.0 / n)
    k = min(n, max_components)
    groups = np.array_split(np.arange(n), k)
    gw = np.empty(k)
    gmu = np.empty(k)
    gvar = np.empty(k)
    for j, idx in enumerate(groups):
        wj = w[idx]
        gw[j] = wj.sum()
        gmu[j] = np.sum(wj * mu[idx]) / gw[j]
        second = np.sum(wj * (var[idx] + mu[idx] ** 2)) / gw[j]
        gvar[j] = second - gmu[j] ** 2
    floor = 1e-6 * width ** 2
    return Gmm(gw / gw.sum(), gmu, np.maximum(gvar, floor))


def _quantile_init(values: np.ndarray, num_components: int,
                   var: float) -> Gmm:
    """Equal weights, means at the values' quantiles, variances ``var``."""
    qs = (np.arange(num_components) + 0.5) / num_components
    return Gmm(np.full(num_components, 1.0 / num_components),
               np.quantile(values, qs), np.full(num_components, var))


def _smooth(fitted: Gmm, previous: Gmm, alpha: float, var_floor: float) -> Gmm:
    """Blend fitted into previous parameters componentwise (matched by sorted
    mean) when the component counts agree; otherwise adopt the fit as is."""
    if fitted.num_components != previous.num_components:
        return fitted
    f_order = np.argsort(fitted.means)
    p_order = np.argsort(previous.means)
    w = alpha * fitted.weights[f_order] + (1.0 - alpha) * previous.weights[p_order]
    mu = alpha * fitted.means[f_order] + (1.0 - alpha) * previous.means[p_order]
    var = alpha * fitted.variances[f_order] + (1.0 - alpha) * previous.variances[p_order]
    return Gmm(w / w.sum(), mu, np.maximum(var, var_floor))


def refit_proposal(previous: Gmm, elite_values: np.ndarray,
                   hyper: CeHyperparams, var_floor: float) -> Gmm:
    """EM fits for every component count up to the budget, BIC picks, smooth.
    A fit that converged hands BIC the log-likelihood EM computed last."""
    best_fit = None
    best_score = np.inf
    var = max(float(np.var(elite_values)), var_floor, 1e-300)
    for k in range(1, hyper.max_components + 1):
        if k > elite_values.size:
            break
        history: list[float] = []
        fitted = em_fit(elite_values, k, _quantile_init(elite_values, k, var),
                        var_floor=var_floor, history=history)
        # a converged fit's last log-likelihood is that of its parameters
        score = bic(fitted, elite_values, history[-1]
                    if len(history) < EM_MAX_ITER else None)
        if score < best_score - 1e-12:
            best_score = score
            best_fit = fitted
    return _smooth(best_fit, previous, hyper.smoothing, var_floor)


def evaluate_candidates(batch, check: _EdgeCheck, grid_step: float,
                        total_bandwidth: float,
                        ) -> list[tuple[list[tuple[float, float]], bool]]:
    """Complete each list of sampled centers in ``batch`` into a disjoint
    feasible subchannel list, with a flag telling whether at least one
    center met the access threshold (for band feasibility accounting).

    One received-PSD call checks the access of every in-band center of the
    batch, one ``bandwidth_searches`` grows the accessible ones, and the
    parts of ``resolve_overlaps`` complete the lists: ``_truncate`` each,
    its RSS cache seeded with the UE sums of the access PSDs, then one
    ``_revalidate`` all.  A provisional interval's midpoint is its center,
    bit for bit in nearly every draw, so only truncated intervals (and the
    rare midpoint that rounds off its center) are priced again.  ``check``
    is the ``_EdgeCheck`` of the search.
    """
    scenario, params = check.scenario, check.params
    lists = [np.sort(np.asarray(cands, dtype=float)) for cands in batch]
    owners = np.repeat(np.arange(len(lists)), [c.size for c in lists])
    centers = np.concatenate([np.empty(0), *lists])
    ok = _in_band(centers, centers, check.band, params.cutoff_frequency)
    psd = received_strength_psd(scenario, params, centers[ok])
    accessible = ~np.any(psd < check.qos.min_rx_psd, axis=1)
    ok[ok] = accessible
    owners, centers = owners[ok], centers[ok]
    rss = dict(zip(centers.tolist(), psd[accessible].sum(axis=1).tolist()))
    widths = bandwidth_searches(centers, check, grid_step, total_bandwidth)
    records, accessed = [], []
    for n in range(len(batch)):
        mine = owners == n
        provisional = [(float(c), float(w))
                       for c, w in zip(centers[mine], widths[mine]) if w > 0.0]
        records.append(_truncate(provisional, scenario, params,
                                 total_bandwidth, rss))
        accessed.append(bool(mine.any()))
    plans = _revalidate(records, check, grid_step)
    return list(zip(plans, accessed))


def evaluate_candidate(centers, scenario: Scenario, params: AntennaParams,
                       band: tuple[float, float], qos: QosConfig,
                       grid_step: float, total_bandwidth: float,
                       ) -> tuple[list[tuple[float, float]], bool]:
    """The one-candidate case of ``evaluate_candidates``, with its own
    ``_edge_table``."""
    return evaluate_candidates(
        [centers], _edge_table(scenario, params, band, qos), grid_step,
        total_bandwidth)[0]


def score_batch(batch, scenario: Scenario, params: AntennaParams,
                method: str) -> list[SubchannelPlan | None]:
    """The plan of each subchannel list in ``batch``, each subchannel rated
    at its center, or None where the precoder failed at one of its centers.
    Every distinct center is rated once, by one ``rate_densities`` call."""
    centers = np.unique([c for subchannels in batch for c, _ in subchannels])
    density, failed = rate_densities(scenario, params, centers, method)
    plans = []
    for subchannels in batch:
        at = np.searchsorted(centers, [c for c, _ in subchannels])
        if failed[at].any():
            plans.append(None)
            continue
        rates = tuple(w * float(density[i])
                      for (_, w), i in zip(subchannels, at))
        plans.append(SubchannelPlan(tuple(subchannels), float(sum(rates)),
                                    rates))
    return plans


def ce_search(score, scenario: Scenario, params: AntennaParams,
              band: tuple[float, float], method: str, hyper: CeHyperparams,
              qos: QosConfig, rng: np.random.Generator,
              total_bandwidth: float | None = None):
    """The cross-entropy loop shared by every allocator.

    Each iteration draws all its candidate centers from the proposal,
    completes them in lock-step through ``evaluate_candidates`` with the
    search's one ``_EdgeCheck``, built here, and scores the iteration with
    ``score(batch)``: for each subchannel list a plan, with ``feasible``
    and ``total_rate``, or None where the precoder failed.  It ranks the
    candidates by rate, ties by centers; the elites' centers and the
    previous best centers refit the proposal for the next iteration, so
    ``max_iterations`` iterations make ``max_iterations - 1`` refits (the
    refit draws no random numbers).  Returns the plan with the strictly
    greatest ``(feasible, total_rate)``, earliest in rank order.  A
    candidate scored None ranks last.  Raises as ``allocate`` documents.
    """
    if total_bandwidth is None:
        total_bandwidth = band[1] - band[0]
    var_floor = 1e-6 * (band[1] - band[0]) ** 2
    proposal = initial_proposal(band, hyper.num_samples, hyper.max_components)
    check = _edge_table(scenario, params, band, qos)

    best_key: tuple[bool, float] = (False, -np.inf)
    best_plan = None
    prev_best_centers: np.ndarray | None = None
    num_accessible = num_singular = 0

    for iteration in range(1, hyper.max_iterations + 1):
        batch = [np.sort(sample_gmm(proposal, hyper.num_subchannels, rng,
                                    band=band))
                 for _ in range(hyper.num_samples)]
        evaluated = evaluate_candidates(batch, check, hyper.grid_step,
                                        total_bandwidth)
        num_accessible += sum(accessible for _, accessible in evaluated)
        scored = []
        for centers, plan in zip(batch, score([s for s, _ in evaluated])):
            if plan is None:
                key = (False, -np.inf)
                num_singular += 1
            else:
                key = (plan.feasible, plan.total_rate)
            scored.append((key, tuple(centers), plan))
        scored.sort(key=lambda item: (-item[0][1], item[1]))
        for key, _, plan in scored:
            if key > best_key:
                best_key = key
                best_plan = plan
        if iteration == hyper.max_iterations:
            break
        elites = scored[:hyper.num_elites]
        pool = [c for _, centers, _ in elites for c in centers]
        if prev_best_centers is not None:
            pool.extend(prev_best_centers)
        prev_best_centers = np.asarray(elites[0][1])
        proposal = refit_proposal(proposal, np.asarray(pool), hyper, var_floor)

    if num_accessible == 0:
        raise InfeasibleBand(
            "no sampled center frequency met the access threshold")
    # only candidates with an accessible center reach the precoder
    if num_singular == num_accessible:
        raise SingularChannel(
            f"the {method} precoder failed on all {num_singular} candidates "
            "that met the access threshold")
    return best_plan


def allocate(scenario: Scenario, params: AntennaParams,
             band: tuple[float, float], method: str, hyper: CeHyperparams,
             qos: QosConfig, rng: np.random.Generator,
             total_bandwidth: float | None = None) -> SubchannelPlan:
    """Cross-entropy search for the rate-maximising subchannel plan.

    ``total_bandwidth`` is the spectrum budget; it defaults to the full band
    width.  Raises InfeasibleBand when no sampled center ever meets the
    access threshold, and SingularChannel when the precoder cannot serve
    the scenario: at once for zero forcing with more UEs than APs, else
    when every candidate that met the threshold failed to precode.
    """
    if method == "zf":
        require_zf_shape(scenario.num_ues, scenario.num_aps)
    return ce_search(
        lambda batch: score_batch(batch, scenario, params, method),
        scenario, params, band, method, hyper, qos, rng, total_bandwidth)
