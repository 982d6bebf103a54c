"""Channel, precoding and rate checks against small hand-computable cases."""

import numpy as np
import pytest

from dataclasses import replace

from lwcf.antenna import SPEED_OF_LIGHT, AntennaParams, envelope_ratio, gain
from lwcf.mimo import (
    SingularChannel,
    build_channel,
    build_channels,
    freespace_amplitude,
    precode,
    precoder_rows,
    rate_densities,
    rate_density,
    received_strength_psd,
    sinr,
    sinr_rows,
    stack_sinrs,
    zf_certified,
    zf_closed_form,
)
from lwcf.scenario import ScenarioConfig, generate_scenario
from oracles import gain_envelope, kernel_grid, plan_rate, precode_2d, sinr_2d

PARAMS = AntennaParams(1.0, 0.15, 130.0, 100e9)


def make_scenario(num_aps=8, num_ues=4, seed=0):
    return generate_scenario(ScenarioConfig(
        area_side=200.0, num_aps=num_aps, num_ues=num_ues,
        elev_diff_range=(5.0, 10.0), total_power=2.0, total_bandwidth=10e9,
        noise_psd=10 ** (-19.8), seed=seed))


def test_freespace_amplitude_value():
    f, d = 150e9, 10.0
    assert freespace_amplitude(f, d) == pytest.approx(
        SPEED_OF_LIGHT / (4.0 * np.pi * f * d), rel=1e-15)


def test_channel_entry_closed_form():
    sc = make_scenario(num_aps=3, num_ues=2, seed=1)
    f = 130e9
    h = build_channel(sc, PARAMS, f)
    assert h.shape == (2, 3)
    k, m = 1, 2
    g = gain(PARAMS, f, sc.angles[k, m])
    amp = SPEED_OF_LIGHT / (4.0 * np.pi * f * sc.distances[k, m])
    phase = np.exp(-2j * np.pi * f * sc.distances[k, m] / SPEED_OF_LIGHT)
    assert h[k, m] == pytest.approx(np.sqrt(g) * amp * phase, rel=1e-12)


def test_mrt_columns_match_conjugate_rows():
    sc = make_scenario(seed=2)
    h = build_channel(sc, PARAMS, 140e9)
    w = precode(h, "mrt")
    assert w.shape == (8, 4)
    assert np.allclose(np.linalg.norm(w, axis=0), 1.0)
    for k in range(4):
        direction = np.conj(h[k])
        direction = direction / np.linalg.norm(direction)
        assert np.allclose(w[:, k], direction)


def test_zero_forcing_nulls_cross_terms():
    for seed in range(5):
        sc = make_scenario(num_aps=16, num_ues=4, seed=seed)
        h = build_channel(sc, PARAMS, 150e9)
        w = precode(h, "zf")
        cross = h @ w
        diag = np.abs(np.diag(cross))
        off = np.abs(cross - np.diag(np.diag(cross)))
        assert np.all(diag > 0.0)
        assert np.max(off) / np.min(diag) < 1e-10


def test_zero_forcing_rejects_k_greater_than_m():
    sc = make_scenario(num_aps=3, num_ues=5, seed=0)
    h = build_channel(sc, PARAMS, 150e9)
    with pytest.raises(SingularChannel):
        precode(h, "zf")


def test_zero_forcing_rejects_duplicated_ue():
    sc = make_scenario(num_aps=8, num_ues=2, seed=3)
    h = build_channel(sc, PARAMS, 150e9)
    entries = h.copy()
    entries[1] = entries[0]          # two UEs with identical channels
    with pytest.raises(SingularChannel):
        precode(entries, "zf")


def test_precode_and_sinr_equal_the_matrix_oracles_bit_for_bit():
    """``precode``/``sinr`` (one-slice stacks) and every slice of a stacked
    ``precoder_rows``/``sinr_rows`` equal the one-matrix formulas exactly."""
    for seed, (m, k) in enumerate([(16, 4), (8, 8), (32, 10), (5, 3)]):
        sc = make_scenario(num_aps=m, num_ues=k, seed=seed)
        freqs = np.linspace(110e9, 190e9, 5)
        h = np.stack([build_channel(sc, PARAMS, f) for f in freqs])
        for method in ("mrt", "zf"):
            rows, failed = precoder_rows(h, method)
            assert not failed.any()
            gammas = sinr_rows(h, rows, sc.tx_psd, sc.noise_psd)
            for n, f in enumerate(freqs):
                channel = h[n].copy()
                want = precode_2d(channel, method)
                got = precode(channel, method)
                assert np.array_equal(got, want)
                assert np.array_equal(rows[n].T, want)
                gamma = sinr_2d(channel, want, sc.tx_psd, sc.noise_psd)
                assert np.array_equal(sinr(channel, got, sc.tx_psd,
                                           sc.noise_psd), gamma)
                assert np.array_equal(gammas[n], gamma)


def test_precoder_rows_flags_failed_slices():
    """A singular zero-forcing slice and a collapsed column of either
    method are flagged and leave the other slices' bits intact; only
    zero forcing with K > M raises."""
    sc = make_scenario(num_aps=8, num_ues=3, seed=3)
    good = build_channel(sc, PARAMS, 150e9)
    twin = good.copy()
    twin[1] = twin[0]                 # two UEs with identical channels
    rows, failed = precoder_rows(np.stack([good, twin, good]), "zf")
    assert failed.tolist() == [False, True, False]
    assert np.array_equal(rows[2], precoder_rows(good[None], "zf")[0][0])
    dead = good.copy()
    dead[2] = 0.0
    for method in ("zf", "mrt"):
        rows, failed = precoder_rows(np.stack([good, dead, good]), method)
        assert failed.tolist() == [False, True, False]
        lone = precoder_rows(good[None], method)[0][0]
        assert np.array_equal(rows[0], lone)
        assert np.array_equal(rows[2], lone)
    with pytest.raises(SingularChannel, match="K=3 UEs and M=2 APs"):
        precoder_rows(good[None, :, :2], "zf")


def test_precode_names_the_cause_of_a_failure():
    """``precode``, the one-slice case, raises where ``precoder_rows``
    flags: a collapsed column under maximum ratio, the Gram condition under
    zero forcing."""
    sc = make_scenario(num_aps=8, num_ues=3, seed=3)
    dead = build_channel(sc, PARAMS, 150e9).copy()
    dead[2] = 0.0
    channel = dead
    with pytest.raises(SingularChannel, match="collapsed") as mrt:
        precode(channel, "mrt")
    assert "zero forcing" not in str(mrt.value)
    with pytest.raises(SingularChannel, match="Gram condition"):
        precode(channel, "zf")


def gram_of(h):
    return h @ h.conj().swapaxes(-1, -2)


def trace_bounds(h):
    """tr(G) tr(G^-1) of each slice's Gram, tr(G^-1) from the diagonal of
    its inverse."""
    gram = gram_of(h)
    diagonal = np.linalg.inv(gram).diagonal(axis1=-2, axis2=-1).real
    return (gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
            * diagonal.sum(axis=-1))


def cond_spy(monkeypatch):
    """Record every Gram stack handed to ``np.linalg.cond``."""
    real = np.linalg.cond
    calls = []

    def spy(x, *args, **kwargs):
        calls.append(np.array(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", spy)
    return calls


def near_twin(good, rng, scale):
    """``good`` with row 1 moved to within ``scale`` of row 0."""
    h = good.copy()
    h[1] = h[0] + scale * np.abs(h[0]).max() * (
        rng.normal(size=h.shape[1]) + 1j * rng.normal(size=h.shape[1]))
    return h


def test_zf_tiers_mix_certified_passing_and_failing_slices(monkeypatch):
    """``stack_sinrs`` scores the slices whose trace bound certifies them
    in closed form, without the SVD; only the others take the exact
    condition test in ``precoder_rows`` and pass or fail it.  SINRs and
    flags equal the one-matrix oracles bit for bit: the lone closed form,
    or the lone precoder and SINR.  An exactly singular slice is flagged
    alone, and it too is the only extra slice the exact test sees."""
    import lwcf.mimo
    sc = make_scenario(num_aps=8, num_ues=3, seed=3)
    rng = np.random.default_rng(3)
    good = [build_channel(sc, PARAMS, f) for f in (130e9, 150e9)]
    h = np.stack([good[0], near_twin(good[1], rng, 1e-3), good[1],
                  near_twin(good[0], rng, 1e-5)])
    gram = gram_of(h)
    conds = np.linalg.cond(gram)
    bounds = trace_bounds(h)
    limit = np.sqrt(conds[1] * conds[3])
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", limit)
    certify = limit * lwcf.mimo.ZF_CERTIFICATE_SLACK
    # slices 0 and 2 certified, 1 exact and passing, 3 exact and failing
    assert bounds[0] <= certify and bounds[2] <= certify
    assert bounds[1] > certify and conds[1] <= limit < conds[3]

    calls = cond_spy(monkeypatch)

    def expect(stack):
        """Flags of ``stack`` and the Grams its exact test saw, after
        checking the SINRs against the oracles (which take the SVD)."""
        calls.clear()
        gammas, failed = stack_sinrs(stack, "zf", sc.tx_psd, sc.noise_psd)
        seen = list(calls)
        for n, channel in enumerate(stack):
            lone, certified = zf_closed_form(gram_of(channel)[None],
                                             sc.tx_psd, sc.noise_psd)
            if certified[0]:
                assert not failed[n]
                assert gammas[n].tolist() == lone[0].tolist()
                continue
            try:
                want = precode_2d(channel.copy(), "zf")
            except SingularChannel:
                assert failed[n]
                continue
            assert not failed[n]
            assert gammas[n].tolist() == sinr_2d(
                channel, want, sc.tx_psd, sc.noise_psd).tolist()
        return failed.tolist(), seen

    failed, seen = expect(h)
    assert failed == [False, False, False, True]
    assert len(seen) == 1 and np.array_equal(seen[0], gram[[1, 3]])

    dead = good[0].copy()
    dead[2] = 0.0                     # an exactly singular Gram
    stack = np.concatenate([h, dead[None]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram_of(stack))
    failed, seen = expect(stack)
    assert failed == [False, False, False, True, True]
    assert len(seen) == 1 and np.array_equal(seen[0],
                                             gram_of(stack)[[1, 3, 4]])


def test_zf_certificate_rejects_an_untrusted_inverse_diagonal():
    """``zf_certified`` passes a slice on its trace bound only when every
    diagonal entry of the inverse is finite and positive: a negative, zero,
    NaN or infinite entry fails it even where the bound alone would pass,
    and the garbage sums raise no floating-point warning."""
    gram = np.stack([np.eye(3, dtype=complex)] * 6)
    diagonal = np.array([[1.0, 1.0, 1.0],
                         [-1.0, 2.0, 2.0],       # bound 9, one entry < 0
                         [0.0, 1.0, 1.0],
                         [np.nan, 1.0, 1.0],
                         [np.inf, -np.inf, 1.0],
                         [1e12, 1.0, 1.0]])     # bound above the limit
    with np.errstate(all="raise"):
        got = zf_certified(gram, diagonal)
    assert got.tolist() == [True, False, False, False, False, False]


def test_trace_bound_dominates_the_condition_number(monkeypatch):
    """tr(G) tr(G^-1), from the inverse diagonal, is at least cond(G) to
    within the rounding S u cond of the inverse and the SVD, for S = 1..20
    UEs and conditions 1e0..1e15; every slice the closed form of
    ``stack_sinrs`` certifies has an SVD condition number within
    ``MAX_ZF_CONDITION``, at the default and lower limits."""
    import lwcf.mimo
    rng = np.random.default_rng(14)
    unit = np.finfo(float).eps / 2
    slack = lwcf.mimo.ZF_CERTIFICATE_SLACK
    exponents = np.linspace(0.0, 15.0, 31)
    certified_total = 0
    for s in range(1, 21):
        m = s + int(rng.integers(0, 12))
        stack = []
        for e in exponents:
            u, _ = np.linalg.qr(rng.normal(size=(s, s))
                                + 1j * rng.normal(size=(s, s)))
            v, _ = np.linalg.qr(rng.normal(size=(m, m))
                                + 1j * rng.normal(size=(m, m)))
            sv = rng.uniform(1.0, 2.0, s)
            sv[-1] = sv.max() * 10.0 ** (-e / 2)   # cond(G) = 10^e for s > 1
            stack.append((u * sv) @ v[:s].conj() * 1e-6)
        h = np.stack(stack)
        gram = gram_of(h)
        conds = np.linalg.cond(gram)
        bounds = trace_bounds(h)
        assert np.all(bounds >= conds * (1.0 - 4 * s * unit * conds))
        for limit in (1e12, 1e8, 1e4):
            monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", limit)
            calls = cond_spy(monkeypatch)
            failed = stack_sinrs(h, "zf", np.ones(s), 1.0)[1]
            monkeypatch.undo()
            exact = np.zeros(len(h), dtype=bool)
            for seen in calls:
                exact |= [any(np.array_equal(g, x) for x in seen)
                          for g in gram]
            certified = ~exact
            assert np.array_equal(certified, bounds <= limit * slack)
            certified_total += certified.sum()
            assert np.all(conds[certified] <= limit)
            assert np.array_equal(failed, ~(conds <= limit))
    assert certified_total > 0


def test_stacked_rate_densities_equal_per_frequency_rates(monkeypatch):
    """``rate_densities`` rates a stack of several ``STACK_POINTS`` chunks
    with the bits of a per-frequency build, precode and SINR, and of
    ``rate_density``: for zero forcing with the worst-conditioned slice
    forced to fail, and for maximum ratio, where a collapsed column fails
    its own frequency only.  At the default ``MAX_ZF_CONDITION`` the
    certified zero-forcing slices take the closed form: each density keeps
    the bits of ``rate_density`` and lies within 1e-13 relative of the
    precoded one, and an exactly singular slice fails alone while its
    neighbours keep their bits."""
    import lwcf.mimo
    sc = make_scenario(num_aps=8, num_ues=4, seed=5)
    monkeypatch.setattr(lwcf.mimo, "STACK_POINTS", 7 * sc.distances.size)
    freqs = np.random.default_rng(5).uniform(101e9, 199e9, 41)
    h = build_channels(sc, PARAMS, freqs)
    default_limit = lwcf.mimo.MAX_ZF_CONDITION
    conds = np.linalg.cond(gram_of(h))
    worst = int(np.argmax(conds))
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION",
                        float(np.sort(conds)[-2]))

    def per_frequency(method):
        out = []
        for f in freqs:
            channel = build_channel(sc, PARAMS, f)
            try:
                precoder = precode_2d(channel, method)
            except SingularChannel:
                out.append(None)
                continue
            gamma = sinr_2d(channel, precoder, sc.tx_psd, sc.noise_psd)
            out.append(float(np.sum(np.log2(1.0 + gamma))))
        return out

    for method in ("zf", "mrt"):
        want = per_frequency(method)
        assert [w is None for w in want] == [
            method == "zf" and n == worst for n in range(freqs.size)]
        density, failed = rate_densities(sc, PARAMS, freqs, method)
        assert failed.tolist() == [w is None for w in want]
        for f, got, w in zip(freqs, density, want):
            if w is None:
                with pytest.raises(SingularChannel,
                                   match="zf precoder failed"):
                    rate_density(sc, PARAMS, f, method)
            else:
                assert float(got) == w == rate_density(sc, PARAMS, f, method)
    mrt = want

    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", default_limit)
    assert zf_closed_form(gram_of(h), sc.tx_psd, sc.noise_psd)[1].any()
    precoded = np.array(per_frequency("zf"))
    zf, failed = rate_densities(sc, PARAMS, freqs, "zf")
    assert not failed.any()
    assert [float(got) for got in zf] == [
        rate_density(sc, PARAMS, f, "zf") for f in freqs]
    assert np.max(np.abs(zf - precoded) / precoded) <= 1e-13

    real = lwcf.mimo.build_channels

    def dead_ue(scenario, params, frequencies, known=None):
        out = real(scenario, params, frequencies, known)
        out[np.asarray(frequencies) == freqs[3], 1] = 0.0
        return out

    monkeypatch.setattr(lwcf.mimo, "build_channels", dead_ue)
    for method, lone in (("mrt", mrt), ("zf", zf)):
        density, failed = rate_densities(sc, PARAMS, freqs, method)
        assert np.flatnonzero(failed).tolist() == [3]
        assert np.array_equal(np.delete(density, 3), np.delete(lone, 3))
        with pytest.raises(SingularChannel,
                           match=f"{method} precoder failed"):
            rate_density(sc, PARAMS, freqs[3], method)


def test_scalar_psd_is_the_one_frequency_case(monkeypatch):
    """A scalar frequency takes the array formula: its PSD equals that row
    of a many-frequency call, chunked or not, bit for bit, envelope or not."""
    import lwcf.mimo
    sc = make_scenario(seed=2)
    monkeypatch.setattr(lwcf.mimo, "STACK_POINTS", 5 * sc.distances.size)
    freqs = np.random.default_rng(2).uniform(101e9, 199e9, 37)
    for envelope in (False, True):
        rows = received_strength_psd(sc, PARAMS, freqs, envelope)
        assert rows.shape == (freqs.size, sc.num_ues)
        for f, row in zip(freqs, rows):
            psd = received_strength_psd(sc, PARAMS, f, envelope)
            assert psd.shape == (sc.num_ues,) and np.array_equal(psd, row)


def test_envelope_psd_is_the_sum_of_the_per_link_envelopes(monkeypatch):
    """The fused envelope kernel of ``received_strength_psd`` stays within
    1e-14 relative of the AP sum of the per-link envelopes of
    ``oracles.gain_envelope``, and brackets the exact PSD as env <= psd
    <= rho env to 1e-14, on the antenna kernel grid: its 64 frequencies
    against seeded 8 x 8 drops whose link angles are the grid's 64, at
    1-500 rad/m.  Chunks that reuse one buffer give the bits of one
    piece, and a lossless aperture has no envelope."""
    import lwcf.mimo
    freqs, angles = kernel_grid(PARAMS.cutoff_frequency)
    freqs = freqs.ravel()
    rel = 1e-14
    for seed, alpha in enumerate((1.0, 3.0, 10.0, 130.0, 500.0)):
        p = AntennaParams(0.9, 0.15, alpha, PARAMS.cutoff_frequency)
        sc = make_scenario(num_aps=8, num_ues=8, seed=seed)
        order = np.random.default_rng(seed).permutation(angles.size)
        sc = replace(sc, angles=angles.ravel()[order].reshape(8, 8).copy())
        env = received_strength_psd(sc, p, freqs, envelope=True)
        free2 = (SPEED_OF_LIGHT / (4.0 * np.pi * freqs)) ** 2
        links = gain_envelope(p, freqs[:, None, None], sc.angles)
        want = (sc.tx_psd * free2[:, None]) * np.sum(
            links * sc.distances ** -2.0, axis=2)
        assert np.all(want > 0.0)
        assert np.max(np.abs(env - want) / want) <= rel
        psd = received_strength_psd(sc, p, freqs)
        assert np.all(env <= psd * (1.0 + rel))
        assert np.all(psd <= envelope_ratio(p) * env * (1.0 + rel))
        with monkeypatch.context() as patch:
            patch.setattr(lwcf.mimo, "STACK_POINTS", 5 * sc.distances.size)
            chunked = received_strength_psd(sc, p, freqs, envelope=True)
        assert np.array_equal(chunked, env)
    lossless = AntennaParams(1.0, 0.15, 0.0, 100e9)
    for f in (150e9, np.array([120e9, 150e9])):
        with pytest.raises(ValueError, match="positive attenuation"):
            received_strength_psd(sc, lossless, f, envelope=True)


def test_unknown_method_rejected():
    sc = make_scenario()
    h = build_channel(sc, PARAMS, 150e9)
    with pytest.raises(ValueError):
        precode(h, "rzf")


def test_sinr_single_ue_closed_form():
    # one UE, no interference: SINR = q * |h w|^2 / N0, and with MRT the
    # beamforming product is exactly the channel norm
    sc = make_scenario(num_aps=6, num_ues=1, seed=4)
    h = build_channel(sc, PARAMS, 150e9)
    w = precode(h, "mrt")
    got = sinr(h, w, sc.tx_psd, sc.noise_psd)
    expected = sc.tx_psd[0] * np.linalg.norm(h[0]) ** 2 / sc.noise_psd
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_sinr_matches_scalar_recompute():
    sc = make_scenario(num_aps=8, num_ues=3, seed=5)
    h = build_channel(sc, PARAMS, 150e9)
    for method in ("mrt", "zf"):
        w = precode(h, method)
        got = sinr(h, w, sc.tx_psd, sc.noise_psd)
        for k in range(3):
            signal = sc.tx_psd[k] * abs(h[k] @ w[:, k]) ** 2
            interference = sum(
                sc.tx_psd[j] * abs(h[k] @ w[:, j]) ** 2
                for j in range(3) if j != k)
            assert got[k] == pytest.approx(
                signal / (interference + sc.noise_psd), rel=1e-10)


def test_received_strength_psd_linkwise():
    sc = make_scenario(num_aps=5, num_ues=3, seed=6)
    f = 160e9
    got = received_strength_psd(sc, PARAMS, f)
    assert got.shape == (3,)
    for k in range(3):
        acc = 0.0
        for m in range(5):
            g = gain(PARAMS, f, sc.angles[k, m])
            amp = freespace_amplitude(f, sc.distances[k, m])
            acc += g * amp ** 2
        assert got[k] == pytest.approx(sc.tx_psd[k] * acc, rel=1e-12)


def test_received_strength_equals_mrt_received_psd():
    """The access/coherence metric coincides with the per-UE received PSD
    under maximum ratio transmission (unit-norm beam toward each UE)."""
    sc = make_scenario(num_aps=8, num_ues=4, seed=7)
    f = 140e9
    h = build_channel(sc, PARAMS, f)
    w = precode(h, "mrt")
    beam = np.abs(np.diag(h @ w)) ** 2
    assert np.allclose(received_strength_psd(sc, PARAMS, f),
                       sc.tx_psd * beam, rtol=1e-10)


def test_received_strength_psd_vectorised_frequencies():
    sc = make_scenario(seed=8)
    freqs = np.array([120e9, 150e9, 190e9])
    block = received_strength_psd(sc, PARAMS, freqs)
    assert block.shape == (3, 4)
    for i, f in enumerate(freqs):
        assert np.allclose(block[i], received_strength_psd(sc, PARAMS, float(f)),
                           rtol=1e-13)


def test_rate_density_manual():
    sc = make_scenario(seed=9)
    f = 150e9
    h = build_channel(sc, PARAMS, f)
    w = precode(h, "zf")
    gamma = sinr(h, w, sc.tx_psd, sc.noise_psd)
    assert rate_density(sc, PARAMS, f, "zf") == pytest.approx(
        float(np.sum(np.log2(1.0 + gamma))), rel=1e-14)


def test_plan_rate_additive_and_skips_empty():
    sc = make_scenario(seed=10)
    subs = [(130e9, 1e9), (170e9, 2e9)]
    expected = sum(w * rate_density(sc, PARAMS, c, "zf") for c, w in subs)
    assert plan_rate(subs, sc, PARAMS, "zf") == pytest.approx(expected, rel=1e-14)
    assert plan_rate(subs + [(150e9, 0.0)], sc, PARAMS, "zf") == pytest.approx(
        expected, rel=1e-14)
    assert plan_rate([], sc, PARAMS, "zf") == 0.0


def test_zf_beats_mrt_with_many_aps():
    sc = make_scenario(num_aps=32, num_ues=8, seed=11)
    assert rate_density(sc, PARAMS, 150e9, "zf") > rate_density(
        sc, PARAMS, 150e9, "mrt")
