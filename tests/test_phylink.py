import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from fsocdma import phylink as pl
from fsocdma.orthocodes import (
    ORDER_LIMIT,
    SUPPORTED_PRIMES,
    build,
    prime_base,
    supported_orders,
)
from fsocdma.sensing import OccupancyModel
from oracles import (
    chips_for_configuration,
    components,
    literal_receiver,
    or_fused_draw,
    stacked_signature_matrix,
)


def sensing_model(pr_h1, pd, pfa, k=4):
    """Occupancy model of k users that sense with local pd and pfa, OR-fused."""
    return OccupancyModel.from_fused(pr_h1, qd=1.0 - (1.0 - pd) ** k, qfa=1.0 - (1.0 - pfa) ** k)


def draw_slots(params, model, rng, n_slots):
    """n_slots slots drawn from rng as the simulator draws one batch's slots."""
    u = rng.random((n_slots, params.n_subcarriers))
    fade = rng.standard_exponential((n_slots, params.n_subcarriers))
    mai_z = rng.standard_normal((n_slots, params.n_users - 1))
    return pl.build_slots(params, model, u, fade, mai_z)


def manual_slot(params, est_busy, lam_indices, fade, mai_z):
    """Slots with fixed masks and given fading (no randomness).

    fade holds |beta_1n|^2, shape (N,) for one slot or (B, N) for B slots
    that share the masks; mai_z, shape (K-1,) or (B, K-1), scales the
    interferers' projections.
    """
    fade = np.atleast_2d(np.asarray(fade, dtype=float))
    b, k = fade.shape[0], params.n_users
    est_busy = np.tile(np.asarray(est_busy, dtype=bool), (b, 1))
    misdetected = np.zeros_like(est_busy)
    misdetected[:, list(lam_indices)] = True
    chips, energies = pl.signature_matrix(est_busy, k, params.code_policy)
    return pl.SlotBatch(
        occupancy=est_busy | misdetected,
        est_busy=est_busy,
        misdetected=misdetected,
        chips=chips,
        energies=energies,
        fade=fade,
        mai_z=np.broadcast_to(np.asarray(mai_z, dtype=float), (b, k - 1)),
    )


def fresh_gains(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def gains_with_fade(fade, k, rng):
    """(K, N) gains whose first row has |beta_1n|^2 = fade (random phases);
    the other users' gains are fresh."""
    gains = fresh_gains(rng, (k, len(fade)))
    gains[0] = np.sqrt(fade) * np.exp(2j * np.pi * rng.random(len(fade)))
    return gains


def fixed_mask_components(params, est_busy, lam_indices, trials, rng, chunk=10_000):
    """(trials, 4) parts R_s, R_MAI, R_GI, R_n of one all-ones bit interval per
    slot, R_GI and R_n split from the receiver's normal as oracles.components
    splits them; every slot has the given masks and fresh fading."""
    k, n = params.n_users, params.n_subcarriers
    comps = []
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        slot = manual_slot(params, est_busy, lam_indices, rng.standard_exponential((b, n)),
                           rng.standard_normal((b, k - 1)))
        bits = np.ones((b, 1, k))
        z = rng.standard_normal((b, 1, 2))  # the receiver's normal and the split's
        out = components(pl.project(slot, params), params, bits,
                            z[:, :, 0], z[:, :, 1])
        comps.append(np.column_stack(
            [out[name][:, 0] for name in ("r_signal", "r_mai", "r_gi", "r_noise")]
        ))
    return np.concatenate(comps)


PARAMS = pl.SystemParams(
    n_subcarriers=32, n_users=4, pr_h1=0.2, noise_psd=0.1, interference_power=0.1
)


class TestSystemParams:
    def test_bits_per_slot(self):
        assert PARAMS.bits_per_slot == 90

    def test_too_many_users_rejected(self):
        with pytest.raises(ValueError):
            pl.SystemParams(n_subcarriers=4, n_users=5, pr_h1=0.1)

    @pytest.mark.parametrize("policy,n,words", [
        ("bogus", 32, ("codes.policy='bogus'", "rechoose, fixed")),
        ("fixed", 11, ("params.n_subcarriers=11", "prime factor outside")),
        ("fixed", 2 * ORDER_LIMIT, (f"params.n_subcarriers={2 * ORDER_LIMIT}", "order limit")),
        # 12 chip classes: a closed-form grid of 1.8e12 cells
        ("fixed", 45, ("params.n_subcarriers=45", "params.n_users=4", "closed-form grid")),
    ], ids=["unknown-policy", "fixed-unsupported-factor", "fixed-above-order-limit",
            "fixed-grid-too-large"])
    def test_bad_code_policy_names_its_key(self, policy, n, words):
        with pytest.raises(ValueError) as err:
            pl.SystemParams(n_subcarriers=n, n_users=4, pr_h1=0.2, code_policy=policy)
        for word in ("codes.policy", *words):
            assert word in str(err.value)
        # every changed copy is checked too, as each sweep point's params are
        with pytest.raises(ValueError, match="codes.policy"):
            dataclasses.replace(PARAMS, n_subcarriers=n, code_policy=policy)


class TestDrawSlot:
    def test_all_free_when_no_primary_and_no_false_alarm(self):
        rng = np.random.default_rng(0)
        params = dataclasses.replace(PARAMS, pr_h1=0.0)
        slot = draw_slots(params, sensing_model(0.0, 0.9, 0.0), rng, 1)
        assert not slot.est_busy.any()
        assert not slot.misdetected.any()
        assert np.count_nonzero(slot.chips[0, 0]) == 32

    def test_perfect_detection_means_no_misdetection(self):
        rng = np.random.default_rng(1)
        slots = draw_slots(PARAMS, sensing_model(0.2, 1.0, 0.05), rng, 50)
        assert not slots.misdetected.any()

    def test_invariants_hold(self):
        rng = np.random.default_rng(2)
        slots = draw_slots(PARAMS, sensing_model(0.2, 0.5, 0.1), rng, 100)
        assert np.array_equal(slots.misdetected, slots.occupancy & ~slots.est_busy)
        assert slots.fade.shape == (100, 32) and np.all(slots.fade >= 0.0)
        assert slots.mai_z.shape == (100, 3)
        assert slots.feasible.all()
        for s in range(100):
            chips = slots.chips[s]
            assert not chips[:, slots.est_busy[s]].any()
            # every user transmits on the same active subcarriers
            assert np.array_equal((chips != 0).all(axis=0), (chips != 0).any(axis=0))
            assert np.array_equal(slots.energies[s], np.sum(chips.astype(object) ** 2, axis=1))
            gram = chips @ chips.T
            assert not np.any(gram[~np.eye(4, dtype=bool)])  # rechosen rows stay orthogonal

    def test_misdetection_count_mean(self):
        # E[#misdetected] = N * (1 - qd) * pr_h1 with qd the OR-fused rate
        pd_local, k, slots = 0.527129, 4, 30_000
        qd = 1.0 - (1.0 - pd_local) ** k
        p_mis = (1.0 - qd) * PARAMS.pr_h1
        expect = PARAMS.n_subcarriers * p_mis
        model = sensing_model(PARAMS.pr_h1, pd_local, 0.0, k)
        rng = np.random.default_rng(3)
        total = 0
        for _ in range(slots // 1_000):
            batch = draw_slots(PARAMS, model, rng, 1_000)
            total += int(batch.misdetected.sum())
        mean = total / slots
        se = np.sqrt(PARAMS.n_subcarriers * p_mis * (1 - p_mis) / slots)
        assert abs(mean - expect) <= 3 * se

    def test_cell_frequencies_match_model_and_or_draw(self):
        # one uniform per subcarrier against the model's cells and against
        # drawing and OR-fusing every user's decision, over 10^6 subcarriers
        pr_h1, pd, pfa, k = 0.2, 0.5, 0.1, 4
        model = sensing_model(pr_h1, pd, pfa, k)
        qd, qfa = 1 - (1 - pd) ** k, 1 - (1 - pfa) ** k
        want = np.array([model.p_mis, pr_h1 * qd, (1 - pr_h1) * qfa])
        slots, chunk, n = 31_250, 3_125, PARAMS.n_subcarriers
        rng = np.random.default_rng(21)
        new = np.zeros(3)
        old = np.zeros(3)
        for _ in range(slots // chunk):
            batch = draw_slots(PARAMS, model, rng, chunk)
            occ, busy = batch.occupancy, batch.est_busy
            new += [np.sum(occ & ~busy), np.sum(occ & busy), np.sum(~occ & busy)]
            occ, busy = or_fused_draw(pr_h1, pd, pfa, k, rng, (chunk, n))
            old += [np.sum(occ & ~busy), np.sum(occ & busy), np.sum(~occ & busy)]
        total = slots * n
        assert total == 10**6
        new, old = new / total, old / total
        se = np.sqrt(want * (1 - want) / total)
        assert np.all(np.abs(new - want) <= 4 * se), (new, want, se)
        assert np.all(np.abs(old - want) <= 4 * se), (old, want, se)
        assert np.all(np.abs(new - old) <= 4 * np.sqrt(2) * se), (new, old, se)

    def test_fades_and_interferer_normals(self):
        # |beta_1n|^2 of a unit-variance circular Gaussian gain is Exp(1);
        # the interferers' scales are standard normals
        rng = np.random.default_rng(22)
        slots = draw_slots(PARAMS, sensing_model(0.2, 0.5, 0.1), rng, 2_000)
        assert stats.kstest(slots.fade.ravel(), "expon").pvalue > 1e-3
        assert stats.kstest(slots.mai_z.ravel(), "norm").pvalue > 1e-3

    def test_capacity_error(self):
        # every subcarrier reported busy: nothing can be transmitted
        rng = np.random.default_rng(4)
        slots = draw_slots(PARAMS, sensing_model(0.2, 1.0, 1.0), rng, 5)
        assert not slots.feasible.any()
        assert not slots.chips.any()
        for policy in pl.CODE_POLICIES:
            chips, energies = pl.signature_matrix(np.ones((1, 32), bool), 4, policy)
            assert not chips.any() and not energies.any()

    def test_fallback_deactivates_excess(self):
        # 31 free -> largest supported order is 30, one free subcarrier idles
        est = np.zeros((1, 32), dtype=bool)
        est[0, 7] = True
        chips, _ = pl.signature_matrix(est, 4, "rechoose")
        free_positions = np.flatnonzero(chips[0, 0] != 0)
        assert free_positions.size == 30
        assert 7 not in free_positions
        assert 31 not in free_positions  # the trailing free subcarrier idles

    def test_fixed_policy_zeroes_in_place(self):
        rng = np.random.default_rng(6)
        fixed = dataclasses.replace(PARAMS, code_policy="fixed")
        slots = draw_slots(fixed, sensing_model(0.2, 0.6, 0.1), rng, 20)
        family = build(32)
        for s in range(20):
            free = ~slots.est_busy[s]
            for i in range(4):
                assert np.array_equal(slots.chips[s, i, free], family.entries[i][free])
                assert not slots.chips[s, i, ~free].any()

    @pytest.mark.parametrize("policy", pl.CODE_POLICIES)
    def test_signature_matrix_matches_oracle(self, policy):
        rng = np.random.default_rng(13)
        n, k = 32, 4
        masks = rng.random((300, n)) < rng.random((300, 1))
        chips, energies = pl.signature_matrix(masks, k, policy)
        for s in range(300):
            want = chips_for_configuration(n, k, set(np.flatnonzero(masks[s])), policy)
            if want is None:
                assert not chips[s].any() and not energies[s].any()
            else:
                assert np.array_equal(chips[s], want)
                assert np.array_equal(energies[s], np.sum(want * want, axis=1))

    @pytest.mark.parametrize("policy", pl.CODE_POLICIES)
    @pytest.mark.parametrize("n", [32, 48])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_signature_matrix_matches_stacked_tables(self, policy, n, k):
        # the one gather into the placement table against a table stacked per slot
        rng = np.random.default_rng(14)
        masks = rng.random((500, n)) < rng.random((500, 1))
        chips, energies = pl.signature_matrix(masks, k, policy)
        want_chips, want_energies = stacked_signature_matrix(masks, k, policy)
        # the chips are int16 (the oracle stacks int64 rows); values compare exactly
        assert chips.dtype == np.int16 and energies.dtype == want_energies.dtype
        assert np.array_equal(chips, want_chips)
        assert np.array_equal(energies, want_energies)

    def test_every_supported_order_fits_int16(self):
        # an entry of A (x) B is a product of one entry of each, so a family
        # peaks at the product of its prime bases' peaks
        peak = {p: int(np.abs(prime_base(p).entries).max()) for p in SUPPORTED_PRIMES}

        def family_peak(n):
            out = 1
            for p in SUPPORTED_PRIMES:
                while n % p == 0:
                    n //= p
                    out *= peak[p]
            return out

        orders = supported_orders(ORDER_LIMIT)
        assert max(map(family_peak, orders)) == 3 ** 5 <= np.iinfo(np.int16).max
        for n in orders[:40]:
            entries = build(n).entries
            assert np.abs(entries).max() == family_peak(n)
            assert np.array_equal(pl._int16_chips(entries), entries)

    def test_int16_guard_raises(self, monkeypatch):
        limit = np.iinfo(np.int16).max
        assert pl._int16_chips(np.array([[limit, -limit]])).dtype == np.int16
        with pytest.raises(OverflowError):
            pl._int16_chips(np.array([[1, limit + 1]]))
        # the placement table checks each family it stores
        monkeypatch.setattr(pl, "rows", lambda n, k: np.full((k, n), limit + 1))
        try:
            with pytest.raises(OverflowError):
                pl.signature_matrix(np.zeros((1, 7), bool), 2, "rechoose")
        finally:
            pl._placement_table.cache_clear()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            pl.signature_matrix(np.zeros((1, 4), bool), 1, "bogus")


def flat_channel_mai(policy, busy):
    """Literal receiver's MAI part under gains constant over the subcarriers,
    with the chips' Gram matrix."""
    gains = np.tile(np.array([[1.0 + 0.5j], [0.3 - 1j], [-0.7 + 0.2j], [1.1 + 0j]]), (1, 32))
    est = np.zeros((1, 32), bool)
    est[0, busy] = True
    chips = pl.signature_matrix(est, 4, policy)[0][0]
    _, parts, _ = literal_receiver(
        chips, gains, [], np.array([[1.0, -1.0, 1.0, -1.0]]), 1.0,
        PARAMS.noise_psd, PARAMS.interference_power, np.random.default_rng(1),
    )
    return parts[0, 1], chips @ chips.T


class TestTransmitAndReceive:
    def test_noiseless_identity(self):
        params = pl.SystemParams(
            n_subcarriers=4, n_users=1, pr_h1=0.0,
            noise_psd=1e-300, interference_power=0.0,
        )
        slot = manual_slot(params, np.zeros(4, bool), [], np.ones(4), [])
        z = np.random.default_rng(0).standard_normal((1, 1))
        decision = pl.receive(pl.project(slot, params), np.ones((1, 1, 1)), z)
        assert decision[0, 0] == 1.0

    def test_bits_need_one_column_per_user_of_the_projection(self):
        # the projection of K=4 users takes bits of width 4, and no other
        proj = pl.project(manual_slot(PARAMS, np.zeros(32, bool), [], np.ones(32), np.ones(3)),
                          PARAMS)
        z = np.zeros((1, 2))
        assert pl.receive(proj, np.ones((1, 2, 4)), z).shape == (1, 2)
        for bad in (np.ones((1, 2, 3)), np.ones((1, 2, 5)), np.ones((1, 4))):
            with pytest.raises(ValueError, match=r"bits must have shape \(B, I, 4\)"):
                pl.receive(proj, bad, z)

    def test_flat_channel_mai_vanishes_with_rechosen_codes(self):
        # 30 free, supported: the rechosen rows are orthogonal, so a flat
        # channel cancels the other users
        mai, gram = flat_channel_mai("rechoose", [3, 11])
        assert not np.any(gram[~np.eye(4, dtype=bool)])
        assert abs(mai) < 1e-12

    def test_flat_channel_mai_survives_with_fixed_zeroed_codes(self):
        mai, gram = flat_channel_mai("fixed", [3, 11, 17])
        assert np.any(gram[0, 1:])
        assert abs(mai) > 1e-6

    def test_power_accounting(self):
        rng = np.random.default_rng(7)
        slots = draw_slots(PARAMS, sensing_model(0.2, 0.5, 0.1), rng, 20)
        for s in range(20):
            p_n = 1.0 / slots.energies[s, 0]
            total = p_n * float(np.sum(slots.chips[s, 0].astype(float) ** 2))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_components_sum_to_decision(self):
        rng = np.random.default_rng(8)
        slots = draw_slots(PARAMS, sensing_model(0.2, 0.5, 0.1), rng, 200)
        bits = rng.integers(0, 2, (200, 1, 4)) * 2.0 - 1.0
        z, v = rng.standard_normal((2, 200, 1))
        proj = pl.project(slots, PARAMS)
        decision = pl.receive(proj, bits, z)
        out = components(proj, PARAMS, bits, z, v)
        names = ("r_signal", "r_mai", "r_gi", "r_noise")
        parts = sum(out[name] for name in names)
        scale = np.maximum(1.0, sum(np.abs(out[name]) for name in names))
        assert np.all(np.abs(decision - parts) <= 1e-10 * scale)

    def test_split_is_zero_where_sigma_is(self):
        # a slot that cannot carry the users has S = ||w_Lambda||^2 = 0, so
        # R = 0 and the split's 0/0 reads as zero, not nan
        slot = manual_slot(PARAMS, np.ones(32, bool), [], np.ones(32), np.zeros(3))
        proj = pl.project(slot, PARAMS)
        z, v = np.random.default_rng(4).standard_normal((2, 1, 5))
        bits = np.ones((1, 5, 4))
        assert not np.any(pl.receive(proj, bits, z))
        out = components(proj, PARAMS, bits, z, v)
        for name in ("r_signal", "r_mai", "r_gi", "r_noise"):
            assert not np.any(out[name]), name

    def test_split_without_misdetection_is_all_noise(self):
        # no misdetected subcarrier: R_GI is zero and R_n is the whole of
        # the receiver's noise, whatever v is
        slot = manual_slot(PARAMS, np.zeros(32, bool), [], np.ones(32), np.ones(3))
        proj = pl.project(slot, PARAMS)
        z, v = np.random.default_rng(5).standard_normal((2, 1, 5))
        out = components(proj, PARAMS, np.ones((1, 5, 4)), z, v)
        assert not np.any(out["r_gi"])
        sigma = math.sqrt(0.5 * PARAMS.noise_psd * proj.signal[0])
        assert out["r_noise"][0] == pytest.approx(sigma * z[0], rel=1e-12)

    def test_seeded_slot_recompute_oracle(self):
        # the literal per-subcarrier receiver, fed a drawn slot's first-user
        # fades and the same bits, reproduces the signal part of the decision
        rng = np.random.default_rng(9)
        slot = draw_slots(PARAMS, sensing_model(0.2, 0.5, 0.1), rng, 1)
        bits = np.array([[1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])
        z, v = rng.standard_normal((2, 1, 2))
        out = components(pl.project(slot, PARAMS), PARAMS, bits[np.newaxis],
                            z, v)
        _, parts, _ = literal_receiver(
            slot.chips[0], gains_with_fade(slot.fade[0], 4, rng),
            np.flatnonzero(slot.misdetected[0]), bits,
            1.0, PARAMS.noise_psd, PARAMS.interference_power, rng,
        )
        assert out["r_signal"][0] == pytest.approx(parts[:, 0], rel=1e-12)

    @pytest.mark.parametrize("policy", pl.CODE_POLICIES)
    def test_projections_match_literal_receiver(self, policy):
        # fixed masks with misdetections, fades and chips: the batched S and
        # ||w_Lambda||^2 equal the per-subcarrier sums for the same
        # |beta_1n|^2, and the literal receiver's four parts add up to its R
        rng = np.random.default_rng(19)
        est = np.zeros(32, bool)
        est[[0, 4, 5, 22]] = True
        lam = [2, 9, 30]
        fade = rng.standard_exponential((3, 32))
        params = dataclasses.replace(PARAMS, code_policy=policy)
        slots = manual_slot(params, est, lam, fade, rng.standard_normal((3, 3)))
        proj = pl.project(slots, params)
        bits = rng.integers(0, 2, (5, 4)) * 2.0 - 1.0
        for s in range(3):
            decisions, parts, sums = literal_receiver(
                slots.chips[s], gains_with_fade(fade[s], 4, rng), lam, bits,
                1.0, PARAMS.noise_psd, PARAMS.interference_power, rng,
            )
            assert proj.signal[s] == pytest.approx(sums["signal"], rel=1e-12)
            assert proj.signal[s] == pytest.approx(sums["w2"], rel=1e-12)
            assert proj.w2_lambda[s] == pytest.approx(sums["w2_lambda"], rel=1e-12)
            assert proj.var_n[s] == pytest.approx(
                0.5 * PARAMS.noise_psd * sums["w2"], rel=1e-12)
            assert proj.var_gi[s] == pytest.approx(
                0.5 * PARAMS.interference_power * sums["w2_lambda"], rel=1e-12)
            assert decisions == pytest.approx(parts.sum(axis=1), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("policy", pl.CODE_POLICIES)
    def test_mai_matches_literal_receiver_over_fresh_gains(self, policy):
        # at fixed masks and first-user gains, m_k drawn as one scaled normal
        # has the variance of the literal receiver's m_k over fresh beta_k,
        # and the literal m_k is Gaussian with the projection's scale
        rng = np.random.default_rng(23)
        est = np.zeros(32, bool)
        est[[1, 6, 13, 27]] = True
        fade = rng.standard_exponential(32)
        gains = gains_with_fade(fade, 4, rng)
        chips = pl.signature_matrix(est[np.newaxis], 4, policy)[0][0]
        trials = 4_000
        literal = np.empty((trials, 3))
        for t in range(trials):
            gains[1:] = fresh_gains(rng, (3, 32))
            literal[t] = literal_receiver(
                chips, gains, [], np.empty((0, 4)), 1.0,
                PARAMS.noise_psd, PARAMS.interference_power, rng,
            )[2]["mai"]
        params = dataclasses.replace(PARAMS, code_policy=policy)
        drawn = pl.project(
            manual_slot(params, est, [], np.tile(fade, (trials, 1)),
                        rng.standard_normal((trials, 3))),
            params,
        ).mai
        scale = pl.project(manual_slot(params, est, [], fade, np.ones(3)), params).mai[0]
        for sample in (literal, drawn):
            assert np.all(np.abs(sample.mean(axis=0)) <= 4 * scale / math.sqrt(trials))

        def var_and_se(x):
            var = x.var(axis=0, ddof=1)
            m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
            return var, (m4 - var**2) / trials

        (v_lit, se2_lit), (v_drawn, se2_drawn) = var_and_se(literal), var_and_se(drawn)
        assert np.all(np.abs(v_lit - v_drawn) <= 3 * np.sqrt(se2_lit + se2_drawn)), (
            v_lit, v_drawn)
        # the three standardized interferers are iid N(0, 1): one KS test
        assert stats.kstest((literal / scale).ravel(), "norm").pvalue > 1e-3

    def test_block_matches_single(self):
        # a batch of slots reproduces each slot received on its own
        rng = np.random.default_rng(10)
        slots = draw_slots(PARAMS, sensing_model(0.2, 0.5, 0.1), rng, 6)
        bits = rng.integers(0, 2, (6, 3, 4)) * 2.0 - 1.0
        z, v = rng.standard_normal((2, 6, 3))

        def received(proj, bits, z, v):
            return dict(components(proj, PARAMS, bits, z, v),
                        decision=pl.receive(proj, bits, z))

        block = received(pl.project(slots, PARAMS), bits, z, v)
        for s in range(6):
            one = manual_slot(PARAMS, slots.est_busy[s], np.flatnonzero(slots.misdetected[s]),
                              slots.fade[s], slots.mai_z[s])
            single = received(pl.project(one, PARAMS),
                              bits[s : s + 1], z[s : s + 1], v[s : s + 1])
            for name in ("decision", "r_noise", "r_gi"):
                assert np.array_equal(single[name][0], block[name][s])


class TestEmpiricalMoments:
    def test_variances_match_closed_forms(self):
        # unit-magnitude chips: all free, two misdetected, K=4
        params = dataclasses.replace(PARAMS, noise_psd=0.2, interference_power=0.3)
        trials = 30_000
        n, k, eb = 32, 4, 1.0
        lam = [1, 5]
        est = np.zeros(n, bool)
        rng = np.random.default_rng(11)
        comps = fixed_mask_components(params, est, lam, trials, rng)
        want = np.array(
            [
                eb**2 / n,
                (k - 1) * eb**2 / (2 * n),
                eb * len(lam) * params.interference_power / (2 * n),
                eb * params.noise_psd / 2,
            ]
        )
        got = comps.var(axis=0, ddof=1)
        # moment-based standard error of a sample variance
        m4 = ((comps - comps.mean(axis=0)) ** 4).mean(axis=0)
        se = np.sqrt(np.maximum(m4 - got**2, 0.0) / trials)
        assert np.all(np.abs(got - want) <= 4 * se), (got, want, se)
        assert comps[:, 0].mean() == pytest.approx(eb, abs=4 * np.sqrt(want[0] / trials))

    def test_interference_terms_uncorrelated(self):
        params = dataclasses.replace(PARAMS, noise_psd=0.2, interference_power=0.3)
        trials = 20_000
        rng = np.random.default_rng(12)
        est = np.zeros(32, bool)
        comps = fixed_mask_components(params, est, [2, 9], trials, rng)[:, 1:]
        corr = np.corrcoef(comps.T)
        limit = 4.0 / np.sqrt(trials)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(corr[i, j]) < limit
