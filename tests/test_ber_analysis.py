import dataclasses
import itertools
import math
import time
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import norm

from fsocdma import ber_analysis as ba
from fsocdma import cli
from fsocdma import montecarlo as mc
from fsocdma.orthocodes import INT64_MAX, build, supported_orders
from fsocdma.phylink import SystemParams, project, receive, signature_matrix
from fsocdma.sensing import OccupancyModel
from oracles import (
    chips_for_configuration,
    conditional_pe_from_chips,
    enum_average_pe,
    exact_average_pe,
    exact_conditional_pe,
    hit_law_per_chip,
    largest_supported,
    _loop_rechoose_cell,
    loop_average_pe,
    loop_trinomial_weights,
    order_sum_average_pe,
    subset_sum_distributions,
)
from test_phylink import manual_slot


class TestQFunction:
    def test_zero(self):
        assert ba.q_function(0.0) == 0.5

    def test_value_at_196(self):
        assert ba.q_function(1.96) == pytest.approx(float(norm.sf(1.96)), rel=1e-12)
        assert ba.q_function(1.96) == pytest.approx(0.024998, abs=1e-6)

    def test_far_left_tail(self):
        assert ba.q_function(-40.0) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-30, 30))
    def test_symmetry(self, x):
        assert ba.q_function(x) + ba.q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_erfc_matches_mpmath(self):
        # erfc(z) is a normal float for z up to about 26.5
        with mpmath.workdps(40):
            for z in np.linspace(-6.0, 26.5, 651).tolist():
                want = float(mpmath.erfc(z))
                assert math.erfc(z) == pytest.approx(want, rel=1e-15, abs=0.0), z

    def test_matches_mpmath(self):
        x = np.linspace(-6.0, 26.5, 326) * math.sqrt(2.0)
        got = ba.q_function(x)
        assert got.shape == x.shape and got.dtype == np.float64
        with mpmath.workdps(40):
            for xi, g in zip(x.tolist(), got.tolist()):
                # at the argument q_function rounds to, x / sqrt(2) in double
                want = float(0.5 * mpmath.erfc(xi / math.sqrt(2.0)))
                assert g == pytest.approx(want, rel=1e-15, abs=0.0), xi

    def test_scalar_and_array_inputs_agree(self):
        x = np.array([[-3.5, 0.25], [1.96, 12.0]])
        table = ba.q_function(x)
        assert table.shape == (2, 2)
        for xi, qi in zip(x.ravel().tolist(), table.ravel().tolist()):
            for arg in (xi, np.float64(xi), np.array(xi)):
                got = ba.q_function(arg)
                assert np.ndim(got) == 0 and got == qi
        assert ba.q_function([]).shape == (0,)

    def test_underflow_end_is_zero(self):
        assert ba.q_function(38.0) > 0.0
        assert np.array_equal(ba.q_function([40.0, 1e3, np.inf]), [0.0, 0.0, 0.0])
        assert ba.q_function(-np.inf) == 1.0


def all_free_chips(order, k):
    """The first k rows of the order's family as float chips, every subcarrier free."""
    return build(order).entries[:k].astype(np.float64)


def mask(n, positions):
    out = np.zeros(n, dtype=bool)
    out[list(positions)] = True
    return out


class TestVarianceTerms:
    """The four variance terms, through the chip-level error probability."""

    def test_unit_chip_specialization(self):
        n, k, lam = 16, 4, [2, 7, 9]
        eb, sn2, ss2 = 1.0, 0.3 / 1.5, 0.7 / 1.5
        var = eb**2 / n + (k - 1) * eb**2 / (2 * n) + eb * len(lam) * ss2 / (2 * n) + eb * sn2 / 2
        want = float(norm.sf(eb / math.sqrt(var)))
        got = ba._chip_pe(all_free_chips(n, k), mask(n, lam), sn2, ss2)
        assert got == pytest.approx(want, rel=1e-12)
        # the fixed policy's class sum with nothing busy and every chip
        # misdetected is the one cell with all n chips hit
        var_all = var + eb * (n - len(lam)) * ss2 / (2 * n)
        want_all = float(norm.sf(eb / math.sqrt(var_all)))
        got_all = ba._fixed_pe(n, 0.0, 1.0, 1.0, 0.0, k, sn2, ss2)
        assert got_all == pytest.approx(want_all, rel=1e-12)

    def test_single_user_no_interference(self):
        # neither other users nor an empty misdetected set add variance
        got = ba._chip_pe(all_free_chips(8, 1), mask(8, []), 0.1, 0.5)
        assert got == pytest.approx(float(norm.sf(1.0 / math.sqrt(1.0 / 8.0 + 0.05))), rel=1e-12)

    def test_multilevel_example(self):
        # first row squared: 1,4,4 -> energy 9, so var_s = 33/81
        got = ba._chip_pe(all_free_chips(3, 1), mask(3, []), 0.0, 0.0)
        assert got == pytest.approx(float(norm.sf(1.0 / math.sqrt(33.0 / 81.0))), rel=1e-14)

    def test_direct_summation_oracle(self):
        n, k = 12, 3
        chips = all_free_chips(n, k)
        lam = [0, 4, 11]
        eb, sn2, ss2 = 1.0, 0.4 / 2.0, 0.9 / 2.0
        pe = ba._chip_pe(chips, mask(n, lam), sn2, ss2)
        assert pe == pytest.approx(conditional_pe_from_chips(chips, lam, eb, sn2, ss2), rel=1e-12)

    def test_zero_energy_is_erasure(self):
        assert ba._chip_pe(np.zeros((1, 4)), mask(4, []), 0.1, 0.1) == 0.5

    def test_deactivated_misdetection_contributes_nothing(self):
        # a misdetected subcarrier whose chip was zeroed adds no variance
        busy = np.array([False, True, False, False, False, True])
        chips = signature_matrix(busy[np.newaxis], 2, "rechoose")[0][0].astype(np.float64)
        assert np.array_equal(chips[:, busy], np.zeros((2, 2)))
        with_gi = ba._chip_pe(chips, mask(6, [1]), 0.1, 0.9)
        assert with_gi == ba._chip_pe(chips, mask(6, []), 0.1, 0.9)


class TestConditionalPe:
    def test_unit_variance_total(self):
        # one unit chip, no noise: var_s = 1 is the whole variance
        pe = ba._chip_pe(np.ones((1, 1)), mask(1, []), 0.0, 0.0)
        assert pe == pytest.approx(float(norm.sf(1.0)), rel=1e-12)
        assert pe == pytest.approx(0.158655, abs=1e-6)

    def test_composed_example(self):
        # 32 unit chips all free, single user, noise PSD 0.1
        pe = ba._chip_pe(all_free_chips(32, 1), mask(32, []), 0.1, 0.0)
        want = float(norm.sf(1.0 / math.sqrt(1.0 / 32.0 + 0.05)))
        assert pe == pytest.approx(want, rel=1e-12)
        assert pe == pytest.approx(2.26e-4, rel=5e-3)

    def test_noise_dominated_limit(self):
        pe = ba._chip_pe(np.ones((1, 1)), mask(1, []), 2e12, 0.0)
        assert pe == pytest.approx(0.5, abs=1e-6)


def assert_window_of(law, want, rtol=1e-13):
    """law (sums, probs) is the dense law want on a window of its sums.

    The window keeps every sum where want is positive, its values agree
    to rtol, and want has at most the recorded floor of mass outside it.
    """
    sums, probs = law
    at = sums.astype(int)
    assert np.array_equal(np.flatnonzero(want[at[0] : at[-1] + 1]) + at[0], at)
    np.testing.assert_allclose(probs, want[at], rtol=rtol, atol=0.0)
    assert float(np.sum(want[: at[0]]) + np.sum(want[at[-1] + 1 :])) <= ba._HIT_FLOOR


def exact_binomial(n, j, p, q):
    """Binom(j; n, p / (p + q)) over the exact values of the floats p and q, rounded once.

    One integer ratio, so no big-rational reduction: Python rounds int / int
    correctly.
    """
    (pn, pd), (qn, qd) = p.as_integer_ratio(), q.as_integer_ratio()
    return comb(n, j) * pn**j * qd**j * qn ** (n - j) * pd ** (n - j) / (pn * qd + qn * pd) ** n


def hit_law_from_oracle(order, r):
    """sum_j Binom(j; order, r) * (the oracle's law of the sum of j uniform squared chips)."""
    want = np.zeros(int(build(order).gram_diag[0]) + 1)
    for j, (sums, probs) in enumerate(subset_sum_distributions(order)):
        want[sums.astype(int)] += exact_binomial(order, j, r, 1.0 - r) * probs
    return want


HIT_RATES = (0.0, 1e-6, 0.03, 0.5, 1.0)


def multi_level(order):
    """Whether the order's first row has chips of more than one magnitude."""
    return len(set(np.abs(build(order).entries[0]).tolist())) > 1


def model_of(p_zero, p_mis):
    return OccupancyModel(pr_h1=0.2, p_zero=p_zero, p_mis=p_mis)


class TestPeOfCounts:
    """Single cells and single code orders of average_pe."""

    def test_binary_no_busy_no_misdetected(self):
        # nothing busy: the one order-32 family, the one cell without hits
        params, model = make_params(32, 1), model_of(0.0, 0.0)
        got = order_sum_average_pe(params, model)
        want = float(norm.sf(1.0 / math.sqrt(1.0 / 32.0 + 0.05)))
        assert got == pytest.approx(want, rel=1e-12)
        assert ba.average_pe(params, model) == got

    def test_all_busy_is_erasure(self):
        # p_zero = 1 zeroes every chip: exactly the erasure value, at any N
        for n, policy in [(32, "rechoose"), (32, "fixed"), (12, "fixed"), (1030, "rechoose"),
                          (1024, "fixed")]:
            assert ba.average_pe(make_params(n, 4, policy=policy), model_of(1.0, 0.0)) == 0.5

    def test_fixed_grid_too_large_is_rejected_before_any_grid(self, monkeypatch):
        # N=45, K=4 has 12 chip classes, a closed-form grid of 1.8e12 cells:
        # the link parameters reject it, built directly or changed to it, and
        # no cell is built first
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(ba, "_binomial_pmf", no_grid)
        with pytest.raises(ValueError) as direct:
            make_params(45, 4, policy="fixed")
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(make_params(45, 4), code_policy="fixed")
        assert str(direct.value) == str(replaced.value)
        for key in ("codes.policy", "params.n_subcarriers=45", "params.n_users=4",
                    "closed-form grid of", "over 12 chip classes"):
            assert key in str(direct.value)

    def test_too_many_users_is_erasure(self):
        # fewer than 4 free subcarriers of 8 cannot carry 4 users; the oracle
        # scores those states 1/2
        n, k, p0 = 8, 4, 0.4
        erased = sum(exact_binomial(n, m, p0, 1.0 - p0) for m in range(5, n + 1))
        assert erased > 0.1
        got = ba.average_pe(make_params(n, k), model_of(p0, 0.0))
        want = enum_average_pe(n, k, p0, 0.0, 1.0, 0.1, 0.1)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got > 0.5 * erased

    def test_fallback_placement_average(self):
        # 11 free subcarriers fall back to a 10-row family and the eleventh
        # idles, so a misdetection there adds nothing.  Every subcarrier is
        # misdetected with probability 0.3: direct enumeration of the 2^11
        # misdetected sets is the oracle.
        n, k, r = 11, 2, 0.3
        chips = np.zeros((k, n))
        chips[:, :10] = build(10).entries[:k]
        want = 0.0
        for size in range(n + 1):
            for lam in itertools.combinations(range(n), size):
                pe = conditional_pe_from_chips(chips, lam, 1.0, 0.1, 0.4)
                want += r**size * (1 - r) ** (n - size) * pe
        got = ba.average_pe(make_params(n, k, ss2=0.4), model_of(0.0, r))
        assert got == pytest.approx(want, rel=1e-12)

    def test_subset_distribution_matches_enumeration(self):
        # order 5: every subset of the squared chips, weighted exactly
        sq = [int(v) ** 2 for v in build(5).entries[0]]
        for r in (0.3, 0.9):
            law = {}
            for size in range(6):
                for subset in itertools.combinations(range(5), size):
                    s = sum(sq[i] for i in subset)
                    weight = Fraction(r) ** size * (1 - Fraction(r)) ** (5 - size)
                    law[s] = law.get(s, 0) + weight
            sums, probs = ba._hit_distribution(5, r, 1.0 - r)
            assert [int(s) for s in sums] == sorted(law)
            for s, p in zip(sums, probs):
                assert p == pytest.approx(float(law[int(s)]), rel=1e-14)

    def test_subset_tables_match_dict_knapsack(self):
        # every multi-level order up to 63: the library's windowed law against
        # the oracle's dictionary knapsack per subset size, mixed over Binom(j; a, r)
        orders = [n for n in supported_orders(63) if multi_level(n)]
        assert len(orders) == 29
        for n in orders:
            for r in HIT_RATES:
                assert_window_of(ba._hit_distribution(n, r, 1.0 - r), hit_law_from_oracle(n, r))

    @pytest.mark.parametrize("n", supported_orders(64) + [729, 2187])
    def test_window_matches_per_chip_convolution(self, n):
        # the fold per squared value, trimmed to its window, against the
        # chip-by-chip convolution over every sum that it replaced
        for r in (0.0123, 0.0133, 0.3):
            assert_window_of(ba._hit_distribution(n, r, 1.0 - r), hit_law_per_chip(n, r, 1.0 - r))

    def test_subset_tables_beyond_int64(self):
        # order 80 = 16 * 5 is multi-level, and the oracle knapsack's subset
        # counts reach comb(80, 40), beyond int64
        n = 80
        assert comb(n, n // 2) > INT64_MAX
        assert multi_level(n)
        energy = float(build(n).gram_diag[0])
        for r in HIT_RATES:
            sums, probs = ba._hit_distribution(n, r, 1.0 - r)
            assert_window_of((sums, probs), hit_law_from_oracle(n, r))
            assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
            assert float(probs @ sums) == pytest.approx(r * energy, rel=1e-12, abs=1e-12)


def make_params(n, k, sn2=0.1, ss2=0.1, policy="rechoose"):
    return SystemParams(
        n_subcarriers=n, n_users=k, pr_h1=0.2, noise_psd=sn2, interference_power=ss2,
        code_policy=policy,
    )


MODEL = OccupancyModel.from_fused(0.2, qd=0.95, qfa=0.05)


class TestAveragePe:
    def test_trinomial_weights_sum_to_one(self):
        n, p0, pm = 32, 0.23, 0.01
        pf = 1.0 - p0 - pm
        total = sum(
            comb(n, m) * comb(n - m, l) * p0**m * pm**l * pf ** (n - m - l)
            for m in range(n + 1)
            for l in range(n - m + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_trinomial_weights_sum_exactly_in_rational_arithmetic(self):
        n = 32
        p0, pm = Fraction(23, 100), Fraction(1, 100)
        pf = 1 - p0 - pm
        total = sum(
            comb(n, m) * comb(n - m, l) * p0**m * pm**l * pf ** (n - m - l)
            for m in range(n + 1)
            for l in range(n - m + 1)
        )
        assert total == 1

    def test_thinning_identity_exact(self):
        # sum_l W[m, l] H[l, j] = P(m) Binom(j; a, r): the trinomial weight
        # times the hypergeometric count of hits on the a active chips is the
        # busy weight times a binomial over the active chips alone
        p0, pm = Fraction(23, 100), Fraction(7, 100)
        pf = 1 - p0 - pm
        r = pm / (pm + pf)
        for n in range(1, 9):
            for m in range(n + 1):
                n_free = n - m
                a = largest_supported(n_free)
                busy = comb(n, m) * p0**m * (1 - p0) ** n_free
                for j in range(a + 1):
                    lhs = sum(
                        comb(n, m) * comb(n_free, l) * p0**m * pm**l * pf ** (n_free - l)
                        * Fraction(comb(a, j) * comb(n_free - a, l - j), comb(n_free, l))
                        for l in range(j, n_free + 1)
                    )
                    assert lhs == busy * comb(a, j) * r**j * (1 - r) ** (a - j), (n, m, j)

    @pytest.mark.parametrize("n", [4, 12, 32, 48, 64])
    def test_trinomial_weights_match_row_loop(self, n):
        # the factored weights P(m) Binom(l; n - m, r) against the trinomial
        # weights of the row loop
        rng = np.random.default_rng(1000 + n)
        edges = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.0), (0.0, 0.3)]
        draws = [tuple(rng.dirichlet(np.ones(3))[:2].tolist()) for _ in range(50)]
        for p0, pm in edges + draws:
            pf = max(1.0 - p0 - pm, 0.0)
            free = pm + pf
            r, q = (pm / free, pf / free) if free > 0.0 else (0.0, 1.0)
            busy = ba._binomial_pmf(n, p0, free)
            got = np.zeros((n + 1, n + 1))
            for m in range(n + 1):
                got[m, : n - m + 1] = busy[m] * ba._binomial_pmf(n - m, r, q)
            want = loop_trinomial_weights(n, p0, pm, pf)
            # below 1e-280 both sides run into subnormal underflow
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-280, err_msg=f"{p0} {pm}")

    @pytest.mark.parametrize("n", [1030, 4096])
    def test_busy_weights_at_large_n(self, n):
        # comb(n, m) overflows a double from n = 1030 on; the weights do not
        rng = np.random.default_rng(n)
        for p in (0.19, 0.5, 0.003, 0.97):
            pmf = ba._binomial_pmf(n, p, 1.0 - p)
            assert abs(float(np.sum(pmf)) - 1.0) <= 1e-12
            # the m whose weight is a normal double, located in logs
            logs = [
                math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
                + m * math.log(p) + (n - m) * math.log1p(-p)
                for m in range(n + 1)
            ]
            normal = [m for m in range(n + 1) if logs[m] > -680.0]
            for m in rng.choice(normal, size=12).tolist() + [normal[0], normal[-1]]:
                want = exact_binomial(n, m, p, 1.0 - p)
                assert pmf[m] == pytest.approx(want, rel=1e-12, abs=0.0), (p, m)
        unit = np.zeros(n + 1)
        unit[0] = 1.0
        assert np.array_equal(ba._binomial_pmf(n, 0.0, 1.0), unit)
        assert np.array_equal(ba._binomial_pmf(n, 1.0, 0.0), unit[::-1])

    def test_degenerate_reduces_to_single_cell(self):
        # nothing busy, nothing misdetected: the all-free order-16 family
        model = OccupancyModel.from_fused(0.0, qd=1.0, qfa=0.0)
        params = make_params(16, 1)
        got = ba.average_pe(params, model)
        want = order_sum_average_pe(params, model)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(float(norm.sf(1.0 / math.sqrt(1.0 / 16.0 + 0.05))), rel=1e-12)

    def test_invalid_mass_rejected(self):
        from fsocdma.sensing import OccupancyModel

        bad = OccupancyModel(pr_h1=0.5, p_zero=0.8, p_mis=0.3)
        with pytest.raises(ValueError):
            ba.average_pe(make_params(8, 2), bad)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("policy", ["rechoose", "fixed"])
    def test_matches_exhaustive_enumeration(self, n, k, policy):
        params = make_params(n, k, policy=policy)
        got = ba.average_pe(params, MODEL)
        want = enum_average_pe(n, k, MODEL.p_zero, MODEL.p_mis, 1.0, 0.1, 0.1, policy)
        assert got == pytest.approx(want, abs=1e-12)
        builtin = ba.average_pe_enumerated(params, MODEL)
        assert builtin == pytest.approx(want, abs=1e-12)

    def test_monotone_in_users(self):
        vals = [ba.average_pe(make_params(32, k), MODEL) for k in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_interference(self):
        vals = [
            ba.average_pe(make_params(32, 4, ss2=s), MODEL) for s in (0.0, 0.5, 2.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_misdetection(self):
        vals = []
        for qd in (0.99, 0.95, 0.80):
            model = OccupancyModel.from_fused(0.2, qd=qd, qfa=0.05)
            vals.append(ba.average_pe(make_params(32, 4, ss2=1.0), model))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_analytic_error_floor_contrast(self):
        # interference-limited K=8 flattens out; K=1 keeps improving
        from fsocdma.montecarlo import RunConfig, analytic_point
        from fsocdma.sensing import DetectorConfig

        det = DetectorConfig(320, 2.3 + 10 * math.log10(320))
        k8 = RunConfig(params=make_params(32, 8), detector=det, snr_grid_db=(20.0, 30.0))
        r8 = analytic_point(k8, 30.0).ber_analytic / analytic_point(k8, 20.0).ber_analytic
        assert r8 > 0.5
        k1 = RunConfig(params=make_params(32, 1), detector=det, snr_grid_db=(10.0, 20.0))
        r1 = analytic_point(k1, 20.0).ber_analytic / analytic_point(k1, 10.0).ber_analytic
        assert r1 < 0.1


def fig2_points(n, k, policy="rechoose"):
    """(model, params) at the six fig2 SNRs with N subcarriers, K users and a code policy."""
    conf = cli.resolve_config(None, [f"params.n_subcarriers={n}", f"codes.policy={policy}"], None)
    cfg = cli.build_run_config(conf, n_users=k)
    model = mc.derive_sensing(cfg).model
    return [(model, mc.point_params(cfg, snr)) for snr in cfg.snr_grid_db]


TABLE_CASES = (
    [(32, k, policy) for k in range(1, 9) for policy in ("rechoose", "fixed")]
    + [(48, 4, "rechoose"), (64, 4, "rechoose"), (64, 4, "fixed")]
    # 11 free subcarriers fall back to order 10; 45 and 63 are multi-level
    + [(11, 2, "rechoose"), (45, 4, "rechoose"), (63, 4, "rechoose")]
)


class TestTableForm:
    """average_pe's factored evaluation against the cell-by-cell loop."""

    @pytest.mark.parametrize("n,k,policy", TABLE_CASES)
    def test_matches_cell_loop(self, n, k, policy):
        for model, pp in fig2_points(n, k, policy):
            got = ba.average_pe(pp, model)
            want = loop_average_pe(
                n, k, model.p_zero, model.p_mis,
                1.0, pp.noise_psd, pp.interference_power, policy,
            )
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,policy", [(32, "rechoose"), (48, "rechoose"), (32, "fixed")])
    def test_pe_of_counts_is_table_cell(self, n, policy):
        # fixed: the class sum at random occupancy models is the oracle's
        # cells (m, l), one at a time, weighted by the trinomial.  rechoose:
        # the oracle's cells of row m, weighted Binom(l; n - m, r), are the
        # value of the order that row carries: average_pe over n - m
        # subcarriers of which none is busy
        k, eb, sn2, ss2 = 4, 1.0, 0.05, 0.5
        rng = np.random.default_rng(n)
        if policy == "fixed":
            for _ in range(8):
                p0, pm = rng.dirichlet(np.ones(3))[:2].tolist()
                got = ba.average_pe(make_params(n, k, sn2, ss2, "fixed"), model_of(p0, pm))
                want = loop_average_pe(n, k, p0, pm, eb, sn2, ss2, "fixed")
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (p0, pm)
            return
        for _ in range(8):
            m = int(rng.integers(0, n - k + 1))
            r = float(rng.uniform(0.0, 0.5))
            n_free = n - m
            want = sum(
                comb(n_free, l) * r**l * (1 - r) ** (n_free - l)
                * _loop_rechoose_cell(n, m, l, k, eb, sn2, ss2)
                for l in range(n_free + 1)
            )
            got = ba.average_pe(make_params(n_free, k, sn2, ss2), model_of(0.0, r))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (m, r)

    def test_fixed_blocks_match_one_block(self, monkeypatch):
        # the class grid in blocks of 7 cells against one block of all cells
        cases = [(n, k, p0, pm) for n, k in ((12, 4), (24, 4), (15, 4))
                 for p0, pm in ((0.0, 0.3), (0.23, 0.07), (0.9, 0.05))]
        whole = [ba.average_pe(make_params(n, k, policy="fixed"), model_of(p0, pm))
                 for n, k, p0, pm in cases]
        monkeypatch.setattr(ba, "_Q_CHUNK", 7)
        for (n, k, p0, pm), want in zip(cases, whole):
            got = ba.average_pe(make_params(n, k, policy="fixed"), model_of(p0, pm))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (n, k, p0, pm)

    def test_cells_are_error_probabilities(self):
        # fixed: a unit-chip and a two-class family, the erasure at p_zero = 1
        for n in (8, 12):
            for p0, pm in [(0.0, 0.0), (0.0, 1.0), (0.3, 0.2), (0.9, 0.05), (1.0, 0.0)]:
                pe = ba.average_pe(make_params(n, 2, policy="fixed"), model_of(p0, pm))
                assert 0.0 < pe <= 0.5
                assert (pe == 0.5) == (p0 == 1.0)
        # rechoose: nothing busy, so the one supported order of N carries
        for order in supported_orders(8)[1:]:
            for r in HIT_RATES:
                assert 0.0 < ba.average_pe(make_params(order, 2), model_of(0.0, r)) <= 0.5


# (p_zero, p_mis): nothing busy, everything busy, misdetection only, and
# spread busy counts; at N = 1030 the spread point keeps few large orders
ORDER_GRID = ((0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (0.23, 0.07), (0.9, 0.05))
ORDER_GRID_1030 = ((0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (0.97, 0.01))


def order_cases(sizes, grid):
    """(params, model) for every K <= 8 that the order-N family admits."""
    for n in sizes:
        for k in range(1, min(8, largest_supported(n)) + 1):
            for p0, pm in grid:
                yield make_params(n, k, 0.05, 0.5), model_of(p0, pm)


class TestOrderTable:
    """The cached order table against the per-order sum it replaced."""

    @pytest.mark.parametrize("sizes,grid", [
        (range(1, 65), ORDER_GRID), ((256,), ORDER_GRID), ((1030,), ORDER_GRID_1030),
    ], ids=["n1-64", "n256", "n1030"])
    def test_matches_order_sum(self, sizes, grid):
        for params, model in order_cases(sizes, grid):
            got = ba.average_pe(params, model)
            want = order_sum_average_pe(params, model)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (params, model)

    def test_groups_split_at_the_chunk(self, monkeypatch):
        # a chunk of 40 law values splits the orders of N <= 64 into groups;
        # an order with a longer law stays one group
        monkeypatch.setattr(ba, "_Q_CHUNK", 40)
        ba._rechoose_table.cache_clear()
        try:
            erased, groups = ba._rechoose_table(48, 4, 0.23, 0.77, 0.1, 0.9)
            assert len(groups) > 1 and erased > 0.0
            for *_, sizes, laws in groups:
                assert len(laws) == sizes.size
                assert sizes.size == 1 or int(np.sum(sizes)) <= 40
            for params, model in order_cases((11, 25, 45, 48, 63), ORDER_GRID):
                got = ba.average_pe(params, model)
                want = order_sum_average_pe(params, model)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0), (params, model)
        finally:
            ba._rechoose_table.cache_clear()

    def test_one_table_per_curve(self, tmp_path):
        # the table holds no SNR: fig2's 12 analytic points (K = 4 and 8 at
        # six SNRs, one sensing point) make one table per K
        ba._rechoose_table.cache_clear()
        argv = ["ber", "--mode", "analytic", "--figure", "fig2", "--threads", "1",
                "--out", str(tmp_path / "fig2.csv")]
        assert cli.main(argv) == 0
        info = ba._rechoose_table.cache_info()
        assert (info.misses, info.hits) == (2, 10)


class TestExactOracle:
    """The exact-BER reference the simulator is checked against."""

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_all_free_walsh_is_incomplete_beta(self, k):
        # 32 equal +-1 chips, no busy or misdetected subcarrier: R is
        # lam_plus * Gamma(32) + lam_minus * Gamma(32), so P(R < 0) is the
        # regularized incomplete beta I_x(32, 32)
        n, eb, sn2 = 32, 1.0, 0.1
        a = eb / n
        v = a * ((k - 1) * eb / n + sn2)
        lam_plus = (a + math.sqrt(a * a + v)) / 2
        lam_minus = (a - math.sqrt(a * a + v)) / 2
        want = float(betainc(n, n, -lam_minus / (lam_plus - lam_minus)))
        got = exact_average_pe(n, k, 0.0, 0.0, eb, sn2, 0.1)
        assert got == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("k", [1, 2])
    def test_averaging_matches_state_enumeration(self, n, k):
        args = (n, k, MODEL.p_zero, MODEL.p_mis, 1.0, 0.1, 1.0)
        want = enum_average_pe(*args, conditional=exact_conditional_pe)
        assert exact_average_pe(*args) == pytest.approx(want, abs=1e-12)

    def test_matches_receiver_on_fixed_masks(self):
        # 26 free subcarriers carry the order-25 multi-level family (one
        # idles) and two of them are misdetected; fading is fresh per slot
        # and shared by the slot's bits, so the standard error is taken
        # over per-slot error rates
        t0 = time.perf_counter()
        n, k, sn2, ss2 = 32, 4, 0.3, 1.0
        params = SystemParams(
            n_subcarriers=n, n_users=k, pr_h1=0.2, noise_psd=sn2, interference_power=ss2
        )
        est = np.zeros(n, dtype=bool)
        est[:6] = True
        lam = [9, 20]
        chips = chips_for_configuration(n, k, set(range(6)), "rechoose")
        want = exact_conditional_pe(chips, lam, 1.0, sn2, ss2)
        assert want >= 1e-2
        rng = np.random.default_rng(17)
        slots, bits_per_slot = 4000, 90
        fade = rng.standard_exponential((slots, n))
        mai_z = rng.standard_normal((slots, k - 1))
        bits = rng.integers(0, 2, (slots, bits_per_slot, k)) * 2 - 1
        proj = project(manual_slot(params, est, lam, fade, mai_z), params)
        decision = receive(proj, bits, rng.standard_normal((slots, bits_per_slot)))
        rates = np.mean(np.where(decision >= 0.0, 1, -1) != bits[:, :, 0], axis=1)
        se = float(np.std(rates, ddof=1)) / math.sqrt(slots)
        assert abs(float(np.mean(rates)) - want) <= 3 * se
        assert time.perf_counter() - t0 < 60.0


class TestBerPoint:
    def test_ci_requires_simulation(self):
        with pytest.raises(ValueError):
            mc.BerPoint(snr_db=0.0, ber_analytic=0.1, ber_simulated=0.1)

    def test_plain_analytic_point(self):
        p = mc.BerPoint(snr_db=5.0, ber_analytic=0.01)
        assert p.ber_simulated is None and p.trials == 0
