import dataclasses
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammainc, gammaincc

import oracles
from fsocdma import sensing as sn
from oracles import (
    bisection_threshold,
    log_poisson_lower,
    pd_rayleigh_series,
    pfa_series,
    sample_level_rate,
)


def poisson_partial_sum(terms, x):
    """Literal evaluation of exp(-x) * sum_{p<terms} x^p / p! (test oracle)."""
    return math.exp(-x) * sum(x**p / math.factorial(p) for p in range(terms))


class TestPfa:
    def test_zero_threshold(self):
        assert sn.pfa(sn.DetectorConfig(5, 2.3), 0.0) == 1.0

    def test_example_mu_tau_5(self):
        got = sn.pfa(sn.DetectorConfig(5, 2.3), 10.0)
        want = poisson_partial_sum(5, 5.0)  # 0.440493...
        assert abs(got - want) < 1e-14
        assert abs(got - 0.440493) < 1e-6

    def test_large_threshold_vanishes(self):
        assert sn.pfa(sn.DetectorConfig(5, 2.3), 200.0) < 1e-12

    @pytest.mark.parametrize("samples", [2, 5, 50, 320])
    def test_matches_incomplete_gamma(self, samples):
        detector = sn.DetectorConfig(samples, 0.0)
        for zeta in np.linspace(0.1, 6.0 * samples, 23):
            got = sn.pfa(detector, float(zeta))
            ref = float(gammaincc(samples, zeta / 2.0))
            assert abs(got - ref) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    samples=st.sampled_from([2, 5, 17, 64]),
    z1=st.floats(0.0, 200.0),
    z2=st.floats(0.0, 200.0),
)
def test_pfa_decreasing_in_threshold(samples, z1, z2):
    lo, hi = sorted((z1, z2))
    detector = sn.DetectorConfig(samples, 0.0)
    p_lo = sn.pfa(detector, lo)
    p_hi = sn.pfa(detector, hi)
    assert p_hi <= p_lo + 1e-12


def pd_quadrature(samples, zeta, gbar):
    """Average the noncentral chi-squared tail over exponential SNR."""
    f = lambda g: stats.ncx2.sf(zeta, 2 * samples, 2 * g) * math.exp(-g / gbar) / gbar
    val, _ = integrate.quad(f, 0.0, np.inf, limit=200)
    return val


@pytest.mark.parametrize(
    "kwargs,key",
    [
        ({"samples": 1}, "detector.samples"),
        ({"zeta": -1.0}, "zeta"),
        ({"zeta": math.nan}, "zeta"),
        ({"zeta": math.inf}, "zeta"),
        ({"mean_snr_db": math.nan}, "detector.mean_snr_db"),
        ({"mean_snr_db": math.inf}, "detector.mean_snr_db"),
    ],
)
def test_bad_detector_config_names_its_key(kwargs, key):
    # a detector field is checked when the detector is built, the
    # threshold zeta by each closed form it is passed to
    fields = {"samples": 5, "mean_snr_db": 2.3, "zeta": 10.0, **kwargs}
    zeta = fields.pop("zeta")
    for closed_form in (sn.pfa, sn.pd_rayleigh):
        with pytest.raises(ValueError, match=key):
            closed_form(sn.DetectorConfig(**fields), zeta)


class TestPdRayleigh:
    def test_zero_threshold(self):
        assert sn.pd_rayleigh(sn.DetectorConfig(5, 2.3), 0.0) == 1.0

    def test_infinite_snr_limit(self):
        pd = sn.pd_rayleigh(sn.DetectorConfig(5, 90.0), 10.0)
        assert abs(pd - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "samples,zeta,snr_db",
        [(5, 10.0, 2.3), (5, 3.0, -3.0), (320, 640.0, 2.3), (320, 1335.8, 27.35), (2, 1.0, 5.0)],
    )
    def test_matches_quadrature(self, samples, zeta, snr_db):
        detector = sn.DetectorConfig(samples, snr_db)
        got = sn.pd_rayleigh(detector, zeta)
        want = pd_quadrature(samples, zeta, detector.mean_snr_linear)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_monotone_grid(self):
        for samples in (2, 5, 320):
            detector = sn.DetectorConfig(samples, 2.3)
            zetas = np.linspace(0, 5 * samples, 40).tolist()
            pds = [sn.pd_rayleigh(detector, z) for z in zetas]
            pfas = [sn.pfa(detector, z) for z in zetas]
            assert all(a + 1e-12 >= b for a, b in zip(pds, pds[1:]))
            assert all(0.0 <= p <= 1.0 + 1e-12 for p in pds)
            assert all(pd + 1e-9 >= pf for pd, pf in zip(pds, pfas))

    @pytest.mark.parametrize(
        "samples,zeta,snr_db,limit",
        [(320, 1e300 / 3, 2525.05, 0.0), (320, 1e300, 2525.05, 0.0), (5, 1e300, 100.0, 0.0),
         (320, 2e10, 3000.0, 1.0)],
    )
    def test_finite_where_x_gbar_overflows(self, samples, zeta, snr_db, limit):
        # x * gbar / (1 + gbar) is inf / inf there; its limit x / (1 + 1/gbar) is not
        detector = sn.DetectorConfig(samples, snr_db)
        assert math.isinf(zeta / 2 * detector.mean_snr_linear)
        pd = sn.pd_rayleigh(detector, zeta)
        assert math.isfinite(pd) and sn.pfa(detector, zeta) <= pd <= 1.0
        assert pd == pytest.approx(limit, abs=1e-12)

    def test_increasing_in_snr(self):
        pds = [sn.pd_rayleigh(sn.DetectorConfig(5, s), 10.0) for s in (-5.0, 0.0, 2.3, 10.0, 20.0)]
        assert all(b > a for a, b in zip(pds, pds[1:]))

    def test_matches_sample_level(self):
        detector = sn.DetectorConfig(5, 2.3)
        rng = np.random.default_rng(1234)
        trials = 200_000
        emp = sample_level_rate(detector, True, 10.0, trials, rng)
        closed = sn.pd_rayleigh(detector, 10.0)
        se = math.sqrt(closed * (1 - closed) / trials)
        assert abs(emp - closed) <= 3 * se


SERIES_SAMPLES = (2, 5, 50, 320)
# fused pd 0.95 over 8 users at samples=320, 2.3 dB + 10*log10(320): pfa ~ 7.1e-126
FIG2_K8_THRESHOLD = 1905.657351411879


def series_thresholds(samples):
    # 1e-7 puts P(u-1, x*gbar/(1+gbar)) below the smallest normal float for
    # samples >= 50, so pd_rayleigh's second term rests on log P there
    return (0.0, 1e-7, 1.0, 10.0, 0.5 * samples, samples, 2.0 * samples,
            4.0 * samples, 6.0 * samples, FIG2_K8_THRESHOLD)


class TestAgainstPoissonSeries:
    """The incomplete-gamma closed forms against the log-space Poisson sums."""

    @pytest.mark.parametrize("snr_db", [2.3, 27.35])
    @pytest.mark.parametrize("samples", SERIES_SAMPLES)
    def test_closed_forms(self, samples, snr_db):
        detector = sn.DetectorConfig(samples, snr_db)
        for zeta in series_thresholds(samples):
            want_pfa = pfa_series(samples, zeta)
            want_pd = pd_rayleigh_series(samples, zeta, detector.mean_snr_linear)
            assert sn.pfa(detector, zeta) == pytest.approx(want_pfa, rel=1e-12, abs=0.0), zeta
            got = sn.pd_rayleigh(detector, zeta)
            assert got == pytest.approx(want_pd, rel=1e-12, abs=0.0), zeta

    def test_deep_tail_is_resolved(self):
        got = sn.pfa(sn.DetectorConfig(320, 27.35), FIG2_K8_THRESHOLD)
        assert got == pytest.approx(7.1417414059899174e-126, rel=1e-12)  # mpmath, 40 digits

    @pytest.mark.parametrize("samples", SERIES_SAMPLES)
    def test_log_lower_tail(self, samples):
        shape = samples - 1
        for y in (1e-12, 1e-5, 1.0, 13.0, 0.5 * samples, samples, 2.0 * samples):
            got = sn._log_poisson_lower(shape, y)
            want = log_poisson_lower(shape, y)
            assert abs(got - want) <= 1e-12, y  # relative 1e-12 on P itself

    def test_grid_reaches_the_fallback(self):
        tiny = np.finfo(float).tiny
        assert gammainc(49, 1e-5) < tiny and gammainc(319, 13.0) < tiny
        gbar = sn.DetectorConfig(50, 27.35).mean_snr_linear
        y = 0.5e-7 * gbar / (1.0 + gbar)
        assert gammainc(49, y) < tiny


GAMMA_SHAPES = (1, 2, 4, 5, 19, 49, 50, 319, 320)


def gamma_arguments(a):
    """x from 1e-7 to 6a, both sides of the series/fraction switch at a+1, the fig2 K=8 x."""
    grid = np.geomspace(1e-7, 6.0 * a, 40).tolist()
    return grid + [a + 1.0 - 1e-9, a + 1.0, a + 1.0 + 1e-9, FIG2_K8_THRESHOLD / 2.0]


class TestIncompleteGammaAgainstMpmath:
    """P(a, x) and Q(a, x) at integer shape against mpmath at 40 digits."""

    @pytest.mark.parametrize("a", GAMMA_SHAPES)
    def test_lower(self, a):
        tiny = np.finfo(float).tiny
        with mpmath.workdps(40):
            for x in gamma_arguments(a):
                want = mpmath.gammainc(a, 0, x, regularized=True)
                got = sn._log_poisson_lower(a, x)
                if want >= tiny:
                    assert math.exp(got) == pytest.approx(float(want), rel=1e-12, abs=0.0), x
                else:  # P is no normal float: its log carries the value
                    assert got == pytest.approx(float(mpmath.log(want)), rel=1e-12), x

    @pytest.mark.parametrize("a", GAMMA_SHAPES)
    def test_upper(self, a):
        tiny = np.finfo(float).tiny
        with mpmath.workdps(40):
            for x in gamma_arguments(a):
                want = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                got = sn._poisson_upper(a, x)
                if want >= tiny:
                    assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), x
                else:
                    assert 0.0 <= got < tiny, x

    def test_edges(self):
        assert sn._poisson_upper(5, 0.0) == 1.0
        assert sn._log_poisson_lower(5, 0.0) == -math.inf
        assert sn._poisson_upper(320, 1e4) == 0.0
        assert sn._log_poisson_lower(320, 1e4) == 0.0


# (samples, per-sample SNR in dB): the selftest's and default detectors, and
# two low-SNR ones where false alarms are frequent
LAW_CASES = [(2, 2.3), (5, 2.3), (320, 2.3), (40, -10.0), (640, -10.0)]


def law_case(samples, snr_db):
    """The detector, and its thresholds solved for pfa = 0.5 and for pd = 0.5."""
    detector = sn.DetectorConfig(samples, snr_db + 10.0 * math.log10(samples))
    idle, occupied = (sn.solve_threshold(detector, 0.5, mode) for mode in ("for_pfa", "for_pd"))
    return detector, idle, occupied


def within_3_se(emp, closed, trials):
    return abs(emp - closed) <= 3 * math.sqrt(closed * (1 - closed) / trials)


class TestSampleLevel:
    """The per-sample oracle: 2u normals a trial."""

    def test_zero_threshold_always_true(self):
        rng = np.random.default_rng(0)
        detector = sn.DetectorConfig(5, 2.3)
        assert sample_level_rate(detector, False, 0.0, 50, rng) == 1.0

    def test_idle_rate_matches_pfa(self):
        detector = sn.DetectorConfig(5, 2.3)
        rng = np.random.default_rng(77)
        trials = 200_000
        emp = sample_level_rate(detector, False, 10.0, trials, rng)
        closed = sn.pfa(detector, 10.0)
        se = math.sqrt(closed * (1 - closed) / trials)
        assert abs(emp - closed) <= 3 * se

    @pytest.mark.parametrize("occupied", [False, True])
    def test_pieces_draw_what_one_draw_per_chunk_draws(self, monkeypatch, occupied):
        # each chunk's normals in one call, then its SNRs: the pieces must
        # take the same numbers from the stream in the same order
        detector = sn.DetectorConfig(5, 2.3)
        trials, chunk = 2_500, 1_000
        rng = np.random.default_rng(8)
        hits = 0
        for b in (1_000, 1_000, 500):
            z = rng.standard_normal((b, 10))
            if occupied:
                z[:, 0] += np.sqrt(2.0 * rng.exponential(detector.mean_snr_linear, size=b))
            hits += int(np.count_nonzero(np.einsum("ij,ij->i", z, z) > 10.0))
        monkeypatch.setattr(oracles, "_RATE_CHUNK", chunk)
        monkeypatch.setattr(oracles, "_RATE_PIECE", 70)  # 7 trials a piece, the last one short
        got = sample_level_rate(detector, occupied, 10.0, trials, np.random.default_rng(8))
        assert got == hits / trials

    def test_memory_is_bounded_by_normals_not_trials(self):
        # a chunk of 50,000 trials at u=320 is 244 MiB of normals in one draw
        detector = sn.DetectorConfig(320, 2.3)
        tracemalloc.start()
        try:
            sample_level_rate(detector, True, 640.0, 100_000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("samples,snr_db", LAW_CASES)
    def test_rates_match_closed_forms(self, samples, snr_db):
        detector, idle, occupied = law_case(samples, snr_db)
        rng = np.random.default_rng(24601)  # the default run.master_seed
        trials = 20_000
        emp = sample_level_rate(detector, False, idle, trials, rng)
        assert within_3_se(emp, sn.pfa(detector, idle), trials)
        emp = sample_level_rate(detector, True, occupied, trials, rng)
        assert within_3_se(emp, sn.pd_rayleigh(detector, occupied), trials)


class TestDecisionRates:
    """The library's sampler: the energy statistic drawn from its law."""

    @pytest.mark.parametrize("samples,snr_db", LAW_CASES)
    def test_rates_match_closed_forms(self, samples, snr_db):
        detector, idle, occupied = law_case(samples, snr_db)
        rng = np.random.default_rng(24601)  # the default run.master_seed
        trials = 200_000
        (emp,) = sn.decision_rates(detector, False, (idle,), trials, rng)
        assert within_3_se(emp, sn.pfa(detector, idle), trials)
        (emp,) = sn.decision_rates(detector, True, (occupied,), trials, rng)
        assert within_3_se(emp, sn.pd_rayleigh(detector, occupied), trials)

    def test_zero_threshold_always_true(self):
        detector = sn.DetectorConfig(5, 2.3)
        assert sn.decision_rates(detector, True, (0.0,), 50, np.random.default_rng(0)) == [1.0]

    @pytest.mark.parametrize("occupied", [False, True])
    def test_chunks_draw_in_stream_order(self, monkeypatch, occupied):
        # each chunk draws its SNRs, then its statistics; every threshold
        # counts the same draws
        detector = sn.DetectorConfig(5, 2.3)
        zetas = (6.0, 10.0, 14.0)
        trials = 2_500
        rng = np.random.default_rng(8)
        hits = np.zeros(len(zetas), dtype=int)
        for b in (1_000, 1_000, 500):
            if occupied:
                nonc = 2.0 * rng.exponential(detector.mean_snr_linear, b)
                stat = rng.noncentral_chisquare(10, nonc)
            else:
                stat = 2.0 * rng.standard_gamma(5, b)
            hits += [np.count_nonzero(stat > z) for z in zetas]
        monkeypatch.setattr(sn, "_DRAW_CHUNK", 1_000)
        got = sn.decision_rates(detector, occupied, zetas, trials, np.random.default_rng(8))
        assert got == [h / trials for h in hits]

    def test_memory_is_bounded_by_the_chunk(self):
        # 10^6 trials drawn at once would hold 8 MB per array
        detector = sn.DetectorConfig(320, 27.35)
        tracemalloc.start()
        try:
            sn.decision_rates(detector, True, (640.0, 700.0), 1_000_000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * sn._DRAW_CHUNK


class TestSolveThreshold:
    def test_inverse_of_pfa_example(self):
        zeta = sn.solve_threshold(sn.DetectorConfig(5, 2.3), poisson_partial_sum(5, 5.0), "for_pfa")
        assert abs(zeta - 10.0) < 1e-6

    def test_target_one_rejected(self):
        with pytest.raises(sn.NoSolutionError):
            sn.solve_threshold(sn.DetectorConfig(5, 2.3), 1.0, "for_pfa")

    def test_pd_fixed_point(self):
        detector = sn.DetectorConfig(5, 2.3)
        achieved = sn.pd_rayleigh(detector, sn.solve_threshold(detector, 0.95, "for_pd"))
        assert abs(achieved - 0.95) <= 1e-9

    @pytest.mark.parametrize("mode", ["for_pfa", "for_pd"])
    def test_round_trip_grid(self, mode):
        detector = sn.DetectorConfig(5, 2.3)
        closed_form = sn.pfa if mode == "for_pfa" else sn.pd_rayleigh
        for target in np.arange(0.01, 1.0, 0.07):
            achieved = closed_form(detector, sn.solve_threshold(detector, float(target), mode))
            assert abs(achieved - target) <= 1e-8

    @pytest.mark.parametrize("mode", ["for_pfa", "for_pd"])
    @pytest.mark.parametrize("samples", [2, 5, 50, 320, 1000])
    def test_same_floats_as_bisection(self, samples, mode):
        # the solver replays the plain bisection's comparisons, so it returns
        # its float bit for bit: over the grid, the roc's pfa = 1e-8 solve, the
        # selftest's round trips and the acceptance round trips
        targets = [1e-8, 0.01, 0.1, 0.5, 0.9, 0.95, 1.0 - 0.05 ** (1 / 8), 0.99]
        cases = [(snr, t) for snr in (-10.0, 2.3, 10.0, 27.35) for t in targets]
        if samples in (5, 320):
            cases += [(2.3, float(t)) for t in np.arange(0.01, 0.999, 0.02)]
        for snr, target in cases:
            detector = sn.DetectorConfig(samples, snr)
            want = bisection_threshold(detector, target, mode)
            assert sn.solve_threshold(detector, target, mode) == want, (snr, target)

    def test_default_solve_takes_half_the_evaluations(self, monkeypatch):
        # the fig2 K=8 solve: the per-user pd of a 0.95 fused target at the
        # default 320 samples and 2.3 dB per sample
        detector = sn.DetectorConfig(320, 2.3 + 10 * math.log10(320))
        args = (detector, 1.0 - (1.0 - 0.95) ** (1 / 8), "for_pd")
        bisected = []
        want = bisection_threshold(*args, calls=bisected)
        calls = []
        pd_rayleigh = sn.pd_rayleigh

        def counted(detector, zeta):
            calls.append(zeta)
            return pd_rayleigh(detector, zeta)

        monkeypatch.setattr(sn, "pd_rayleigh", counted)
        assert sn.solve_threshold(*args) == want
        assert len(calls) <= len(bisected) // 2


# detectors as the CLI builds them, SNR accumulated over the samples: the
# default, where pfa_local underflows against 1, and two at -10 dB per
# sample, where it does not
DETECTORS = [sn.DetectorConfig(u, snr + 10 * math.log10(u))
             for u, snr in ((320, 2.3), (40, -10.0), (640, -10.0))]


class TestFusion:
    def test_single_user_identity(self):
        op = sn.operating_point(1, 0.6, DETECTORS[1], 0.2)
        assert op.qfa == pytest.approx(op.pfa_local) and op.qd == pytest.approx(0.6)

    def test_two_users(self):
        op = sn.operating_point(2, 0.75, DETECTORS[1], 0.2)
        assert op.pd_local == pytest.approx(0.5)
        assert op.qfa == pytest.approx(op.pfa_local * (2.0 - op.pfa_local))

    def test_local_probability_round_trip(self):
        for k in (1, 2, 4, 8):
            assert sn.operating_point(k, 0.95, DETECTORS[0], 0.2).qd == pytest.approx(
                0.95, abs=1e-12
            )

    def test_operating_point(self):
        cases = itertools.product(DETECTORS, range(1, 9), (0.5, 0.75, 0.9, 0.95, 0.99, 0.999))
        for detector, k, target in cases:
            op = sn.operating_point(k, target, detector, 0.2)
            assert abs(op.qd - target) <= sn._TOL, (detector, k, target)
            # 1 - (1 - pfa_local)^k at 400 digits, enough to keep a pfa_local of 1e-300
            with mpmath.workdps(400):
                exact = float(1 - (1 - mpmath.mpf(op.pfa_local)) ** k)
            assert op.qfa == pytest.approx(exact, rel=2 * math.ulp(1.0), abs=0.0)
            assert op.pfa_local == sn.pfa(detector, op.threshold)
            m = op.model
            assert m.p_zero + m.p_mis + m.p_free == pytest.approx(1.0, rel=0.0, abs=math.ulp(1.0))
        # at the default detector pfa_local is far below an ulp of 1, and qfa keeps it
        op = sn.operating_point(8, 0.95, DETECTORS[0], 0.2)
        assert 0.0 < op.pfa_local < 1e-100
        assert 0.0 < op.qfa == -math.expm1(8 * math.log1p(-op.pfa_local))


    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(sn.DetectorConfig)])
    def test_every_detector_field_moves_the_operating_point(self, field):
        # the detector holds only what the solve reads: a field that no run
        # reads leaves the threshold and the model where they were
        detector = DETECTORS[0]
        moved = dataclasses.replace(detector, **{field: getattr(detector, field) + 1})
        base, other = (sn.operating_point(4, 0.95, d, 0.2) for d in (detector, moved))
        assert (other.threshold, other.model) != (base.threshold, base.model)


class TestOccupancyModel:
    def test_example_values(self):
        m = sn.OccupancyModel.from_fused(0.2, qd=0.95, qfa=0.05)
        assert m.p_zero == pytest.approx(0.23)
        assert m.p_mis == pytest.approx(0.01)

    def test_no_primary(self):
        m = sn.OccupancyModel.from_fused(0.0, qd=0.9, qfa=0.3)
        assert m.p_zero == pytest.approx(0.3)
        assert m.p_mis == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        pr=st.floats(0.0, 1.0),
        qd=st.floats(0.0, 1.0),
        qfa=st.floats(0.0, 1.0),
    )
    def test_event_table_partition(self, pr, qd, qfa):
        # the 2x2 (occupied x decided-busy) table must cover all mass:
        # zeroed + misdetected + idle-and-estimated-free == 1
        m = sn.OccupancyModel.from_fused(pr, qd=qd, qfa=qfa)
        table = {
            ("occ", "busy"): pr * qd,
            ("occ", "free"): pr * (1 - qd),
            ("idle", "busy"): (1 - pr) * qfa,
            ("idle", "free"): (1 - pr) * (1 - qfa),
        }
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
        assert m.p_zero == pytest.approx(table[("occ", "busy")] + table[("idle", "busy")], abs=1e-12)
        assert m.p_mis == pytest.approx(table[("occ", "free")], abs=1e-12)
        assert m.p_zero + m.p_mis <= 1.0 + 1e-12


def test_lower_gamma_helper_matches_scipy():
    for shape in (4, 319):
        for y in (0.5, 5.0, 50.0, 300.0, 500.0):
            got = sn._log_poisson_lower(shape, y)
            ref = float(gammainc(shape, y))
            if ref == 0.0:
                assert got < -700.0 or got == -math.inf
            else:
                assert got == pytest.approx(math.log(ref), rel=1e-9, abs=1e-9)
