import dataclasses

import numpy as np
import pytest

from fsocdma import phylink as pl
from fsocdma.orthocodes import build
from oracles import chips_for_configuration, literal_receiver


def manual_slot(params, est_busy, lam_indices, gains, code_policy="rechoose"):
    """Slots with fixed masks and given gains (no randomness).

    gains has shape (K, N) for one slot or (B, K, N) for B slots that
    share the masks.
    """
    gains = np.asarray(gains, dtype=complex)
    if gains.ndim == 2:
        gains = gains[np.newaxis]
    est_busy = np.tile(np.asarray(est_busy, dtype=bool), (gains.shape[0], 1))
    misdetected = np.zeros_like(est_busy)
    misdetected[:, list(lam_indices)] = True
    chips, energies = pl.signature_matrix(est_busy, params.n_users, code_policy)
    return pl.SlotBatch(
        occupancy=est_busy | misdetected,
        est_busy=est_busy,
        misdetected=misdetected,
        chips=chips,
        energies=energies,
        gains=gains,
    )


def fresh_gains(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def fixed_mask_components(params, est_busy, lam_indices, trials, rng, chunk=10_000):
    """(trials, 4) parts R_s, R_MAI, R_GI, R_n of one all-ones bit interval per
    slot; every slot has the given masks and fresh gains."""
    k, n = params.n_users, params.n_subcarriers
    comps = []
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        slot = manual_slot(params, est_busy, lam_indices, fresh_gains(rng, (b, k, n)))
        bits = np.ones((b, 1, k))
        out = pl.receive(pl.project(slot, params.energy_per_bit), params, bits,
                         rng.standard_normal((b, 1, 2)))
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

    def test_subcarrier_bandwidth(self):
        assert PARAMS.subcarrier_bandwidth == pytest.approx(2e5)

    def test_too_many_users_rejected(self):
        with pytest.raises(ValueError):
            pl.SystemParams(n_subcarriers=4, n_users=5, pr_h1=0.1)

    def test_sensing_must_fit_in_slot(self):
        with pytest.raises(ValueError):
            pl.SystemParams(
                n_subcarriers=8, n_users=2, pr_h1=0.1,
                sensing_duration=2e-3, slot_duration=1e-3,
            )


class TestDrawSlot:
    def test_all_free_when_no_primary_and_no_false_alarm(self):
        rng = np.random.default_rng(0)
        params = dataclasses.replace(PARAMS, pr_h1=0.0)
        slot = pl.draw_slots(params, pl.SensingProbs(pd=0.9, pfa=0.0), rng, 1)
        assert not slot.est_busy.any()
        assert not slot.misdetected.any()
        assert np.count_nonzero(slot.chips[0, 0]) == 32

    def test_perfect_detection_means_no_misdetection(self):
        rng = np.random.default_rng(1)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=1.0, pfa=0.05), rng, 50)
        assert not slots.misdetected.any()

    def test_invariants_hold(self):
        rng = np.random.default_rng(2)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=0.5, pfa=0.1), rng, 100)
        assert np.array_equal(slots.misdetected, slots.occupancy & ~slots.est_busy)
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
        rng = np.random.default_rng(3)
        total = 0
        for _ in range(slots // 1_000):
            batch = pl.draw_slots(PARAMS, pl.SensingProbs(pd=pd_local, pfa=0.0), rng, 1_000)
            total += int(batch.misdetected.sum())
        mean = total / slots
        se = np.sqrt(PARAMS.n_subcarriers * p_mis * (1 - p_mis) / slots)
        assert abs(mean - expect) <= 3 * se

    def test_capacity_error(self):
        # every subcarrier reported busy: nothing can be transmitted
        rng = np.random.default_rng(4)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=1.0, pfa=1.0), rng, 5)
        assert not slots.feasible.any()
        assert not slots.chips.any()
        for policy in pl.CODE_POLICIES:
            chips, energies = pl.signature_matrix(np.ones((1, 32), bool), 4, policy)
            assert not chips.any() and not energies.any()

    def test_fallback_deactivates_excess(self):
        # 31 free -> largest supported order is 30, one free subcarrier idles
        params = dataclasses.replace(PARAMS, pr_h1=0.0)
        est = np.zeros(32, dtype=bool)
        est[7] = True
        slot = manual_slot(params, est, [], np.ones((4, 32), complex))
        free_positions = np.flatnonzero(slot.chips[0, 0] != 0)
        assert free_positions.size == 30
        assert 7 not in free_positions
        assert 31 not in free_positions  # the trailing free subcarrier idles

    def test_fixed_policy_zeroes_in_place(self):
        rng = np.random.default_rng(6)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=0.6, pfa=0.1), rng, 20, "fixed")
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

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            pl.signature_matrix(np.zeros((1, 4), bool), 1, "bogus")


class TestTransmitAndReceive:
    def test_noiseless_identity(self):
        params = pl.SystemParams(
            n_subcarriers=4, n_users=1, pr_h1=0.0,
            noise_psd=1e-300, interference_power=0.0,
        )
        slot = manual_slot(params, np.zeros(4, bool), [], np.ones((1, 4), complex))
        z = np.random.default_rng(0).standard_normal((1, 1, 2))
        out = pl.receive(pl.project(slot, 1.0), params, np.ones((1, 1, 1)), z)
        assert out["decision"][0, 0] == 1.0
        assert out["decided"][0, 0] == 1

    def test_flat_channel_mai_vanishes_with_rechosen_codes(self):
        gains = np.tile(np.array([[1.0 + 0.5j], [0.3 - 1j], [-0.7 + 0.2j], [1.1 + 0j]]), (1, 32))
        est = np.zeros(32, bool)
        est[[3, 11]] = True  # 30 free, supported
        slot = manual_slot(PARAMS, est, [], gains)
        proj = pl.project(slot, PARAMS.energy_per_bit)
        out = pl.receive(proj, PARAMS, np.array([[[1.0, -1.0, 1.0, -1.0]]]),
                         np.random.default_rng(1).standard_normal((1, 1, 2)))
        assert abs(out["r_mai"][0, 0]) < 1e-12

    def test_flat_channel_mai_survives_with_fixed_zeroed_codes(self):
        gains = np.tile(np.array([[1.0 + 0.5j], [0.3 - 1j], [-0.7 + 0.2j], [1.1 + 0j]]), (1, 32))
        est = np.zeros(32, bool)
        est[[3, 11, 17]] = True
        slot = manual_slot(PARAMS, est, [], gains, code_policy="fixed")
        proj = pl.project(slot, PARAMS.energy_per_bit)
        out = pl.receive(proj, PARAMS, np.array([[[1.0, -1.0, 1.0, -1.0]]]),
                         np.random.default_rng(1).standard_normal((1, 1, 2)))
        assert abs(out["r_mai"][0, 0]) > 1e-6

    def test_power_accounting(self):
        rng = np.random.default_rng(7)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=0.5, pfa=0.1), rng, 20)
        for s in range(20):
            p_n = PARAMS.energy_per_bit / slots.energies[s, 0]
            total = p_n * float(np.sum(slots.chips[s, 0].astype(float) ** 2))
            assert total == pytest.approx(PARAMS.energy_per_bit, rel=1e-12)

    def test_components_sum_to_decision(self):
        rng = np.random.default_rng(8)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=0.5, pfa=0.1), rng, 200)
        bits = rng.integers(0, 2, (200, 1, 4)) * 2.0 - 1.0
        out = pl.receive(pl.project(slots, PARAMS.energy_per_bit), PARAMS, bits,
                         rng.standard_normal((200, 1, 2)))
        names = ("r_signal", "r_mai", "r_gi", "r_noise")
        parts = sum(out[name] for name in names)
        scale = np.maximum(1.0, sum(np.abs(out[name]) for name in names))
        assert np.all(np.abs(out["decision"] - parts) <= 1e-10 * scale)
        assert np.array_equal(out["decided"], np.where(out["decision"] >= 0, 1, -1))

    def test_seeded_slot_recompute_oracle(self):
        # the literal per-subcarrier receiver, fed a drawn slot and the same
        # bits, reproduces the signal and MAI parts of the decision
        rng = np.random.default_rng(9)
        slot = pl.draw_slots(PARAMS, pl.SensingProbs(pd=0.5, pfa=0.1), rng, 1)
        bits = np.array([[1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])
        out = pl.receive(pl.project(slot, PARAMS.energy_per_bit), PARAMS, bits[np.newaxis],
                         rng.standard_normal((1, 2, 2)))
        _, parts, _ = literal_receiver(
            slot.chips[0], slot.gains[0], np.flatnonzero(slot.misdetected[0]), bits,
            PARAMS.energy_per_bit, PARAMS.noise_psd, PARAMS.interference_power, rng,
        )
        assert out["r_signal"][0] == pytest.approx(parts[:, 0], rel=1e-12)
        assert out["r_mai"][0] == pytest.approx(parts[:, 1], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("policy", pl.CODE_POLICIES)
    def test_projections_match_literal_receiver(self, policy):
        # fixed masks with misdetections, gains and chips: the batched sums
        # equal the per-subcarrier ones, and the literal receiver's four
        # parts add up to its R
        rng = np.random.default_rng(19)
        est = np.zeros(32, bool)
        est[[0, 4, 5, 22]] = True
        lam = [2, 9, 30]
        gains = fresh_gains(rng, (3, 4, 32))
        slots = manual_slot(PARAMS, est, lam, gains, code_policy=policy)
        proj = pl.project(slots, PARAMS.energy_per_bit)
        bits = rng.integers(0, 2, (5, 4)) * 2.0 - 1.0
        for s in range(3):
            decisions, parts, sums = literal_receiver(
                slots.chips[s], gains[s], lam, bits, PARAMS.energy_per_bit,
                PARAMS.noise_psd, PARAMS.interference_power, rng,
            )
            assert proj.signal[s] == pytest.approx(sums["signal"], rel=1e-12)
            assert proj.signal[s] == pytest.approx(sums["w2"], rel=1e-12)
            assert proj.w2_lambda[s] == pytest.approx(sums["w2_lambda"], rel=1e-12)
            scale = np.sqrt(proj.signal[s] * np.max(slots.energies[s])) * 1e-12
            assert proj.mai[s] == pytest.approx(sums["mai"], rel=1e-12, abs=scale)
            assert decisions == pytest.approx(parts.sum(axis=1), rel=1e-12, abs=1e-12)

    def test_block_matches_single(self):
        # a batch of slots reproduces each slot received on its own
        rng = np.random.default_rng(10)
        slots = pl.draw_slots(PARAMS, pl.SensingProbs(pd=0.5, pfa=0.1), rng, 6)
        bits = rng.integers(0, 2, (6, 3, 4)) * 2.0 - 1.0
        z = rng.standard_normal((6, 3, 2))
        block = pl.receive(pl.project(slots, PARAMS.energy_per_bit), PARAMS, bits, z)
        for s in range(6):
            one = manual_slot(PARAMS, slots.est_busy[s], np.flatnonzero(slots.misdetected[s]),
                              slots.gains[s])
            single = pl.receive(pl.project(one, PARAMS.energy_per_bit), PARAMS,
                                bits[s : s + 1], z[s : s + 1])
            for name in ("decision", "r_noise", "r_gi", "decided"):
                assert np.array_equal(single[name][0], block[name][s])


class TestEmpiricalMoments:
    def test_variances_match_closed_forms(self):
        # unit-magnitude chips: all free, two misdetected, K=4
        params = dataclasses.replace(PARAMS, noise_psd=0.2, interference_power=0.3)
        trials = 30_000
        n, k, eb = 32, 4, params.energy_per_bit
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
