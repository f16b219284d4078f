import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fsocdma import montecarlo as mc
from fsocdma.phylink import SystemParams
from fsocdma.sensing import DetectorConfig


def make_config(k=4, **overrides):
    params = SystemParams(
        n_subcarriers=32, n_users=k, pr_h1=0.2, noise_psd=0.1, interference_power=0.1
    )
    detector = DetectorConfig(
        samples=320, threshold=0.0, mean_snr_db=2.3 + 10 * math.log10(320)
    )
    defaults = dict(params=params, detector=detector, snr_grid_db=(5.0, 10.0))
    defaults.update(overrides)
    return mc.RunConfig(**defaults)


@pytest.fixture
def recording_pool(monkeypatch):
    """A recording stand-in for the process pool, so no process starts.

    Returns the list of max_workers each pool was opened with.
    """
    import concurrent.futures

    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


class RecordingGenerator:
    """A numpy Generator that records (method, dtype, count) of every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = np.asarray(method(*args, **kwargs))
            self.draws.append((name, out.dtype.type, out.size))
            return out

        return record


class TestDeriveSensing:
    def test_fused_target_met(self):
        cfg = make_config()
        d = mc.derive_sensing(cfg)
        assert d.fused.qd == pytest.approx(cfg.target_pd, abs=1e-8)
        assert 0.0 <= d.fused.qfa < 1e-12  # negligible at this operating point
        assert d.model.p_zero == pytest.approx(0.2 * 0.95 + 0.8 * d.fused.qfa, abs=1e-9)
        assert d.model.p_mis == pytest.approx(0.05 * 0.2, abs=1e-9)

    def test_threshold_round_trips(self):
        from fsocdma.sensing import pd_rayleigh

        cfg = make_config(k=8)
        d = mc.derive_sensing(cfg)
        achieved = pd_rayleigh(
            DetectorConfig(cfg.detector.samples, d.threshold, cfg.detector.mean_snr_db)
        )
        assert achieved == pytest.approx(d.probs.pd, abs=1e-9)

    def test_one_solve_per_sensing_input(self, monkeypatch):
        # the threshold depends on K, the target, the detector and pr_h1
        # only, so configs that differ in their SNR grid share one solve
        calls = []
        solve = mc.solve_threshold
        monkeypatch.setattr(mc, "solve_threshold", lambda *a: calls.append(a) or solve(*a))
        a = make_config(target_pd=0.9371, snr_grid_db=(10.0,))
        b = make_config(target_pd=0.9371, snr_grid_db=(20.0,))
        assert mc.derive_sensing(a) is mc.derive_sensing(b)
        assert len(calls) == 1


class TestPointParams:
    def test_snr_definition_and_inr(self):
        cfg = make_config()
        pp = mc.point_params(cfg, 20.0)
        assert pp.noise_psd == pytest.approx(1e-2)
        # template had 0 dB interference-to-noise; preserved at the point
        assert pp.interference_power == pytest.approx(pp.noise_psd)

    def test_inr_scaling(self):
        cfg = make_config(
            params=SystemParams(
                n_subcarriers=32, n_users=4, pr_h1=0.2,
                noise_psd=0.1, interference_power=0.4,
            )
        )
        pp = mc.point_params(cfg, 10.0)
        assert pp.interference_power == pytest.approx(4.0 * pp.noise_psd)


class TestEstimateBer:
    def test_deterministic(self):
        cfg = make_config()
        a = mc.estimate_ber(cfg, 5.0, 0)
        b = mc.estimate_ber(cfg, 5.0, 0)
        assert a == b

    def test_coin_flip_limit(self):
        cfg = make_config(snr_grid_db=(-40.0,), trials_min=4_000)
        p = mc.estimate_ber(cfg, -40.0, 0)
        assert abs(p.ber_simulated - 0.5) <= 3 * p.ci_halfwidth

    def test_stopping_rule(self):
        cfg = make_config(trials_min=2_000, target_error_events=100)
        p = mc.estimate_ber(cfg, 5.0, 0)
        assert p.trials >= cfg.trials_min
        assert p.errors >= cfg.target_error_events
        # stop fires at a batch boundary shortly after the target
        bits_per_batch = mc._BATCH_SLOTS * cfg.params.bits_per_slot
        assert p.trials % bits_per_batch == 0

    def test_cap_clips_the_last_batch(self):
        # 5000 bits is 55.6 slots: the point stops at 56 slots, one full
        # 48-slot batch and an 8-slot one, not after a second full batch
        cfg = make_config(trials_min=2_000, target_error_events=10**9, max_trials=5_000)
        assert mc._BATCH_SLOTS == 48
        p = mc.estimate_ber(cfg, 5.0, 0)
        assert p.trials == 5_040

    def test_tiny_cap_is_one_clipped_batch(self):
        # an 8-slot cap below one 48-slot batch simulates 8 slots
        cfg = make_config(trials_min=720, target_error_events=10**9, max_trials=720)
        assert mc.estimate_ber(cfg, 5.0, 0).trials == 720

    @pytest.mark.parametrize("k, pr_h1", [(1, 0.2), (4, 0.2), (8, 0.2), (4, 0.9)])
    def test_draw_budget(self, k, pr_h1):
        # every batch of a group draws from its own stream one uniform and
        # one fade per subcarrier, one normal per interferer, the K bits of
        # each interval packed eight to a byte and one normal per interval
        # (90 a slot; stream 3 drew 180), per slot, and nothing else (also
        # when many slots cannot carry all users, as at pr_h1=0.9); the
        # last batch is clipped, as at a cap
        cfg = make_config(k=k, params=SystemParams(
            n_subcarriers=32, n_users=k, pr_h1=pr_h1, noise_psd=0.1, interference_power=0.1
        ))
        model = mc.derive_sensing(cfg).model
        rngs = [RecordingGenerator(np.random.default_rng(seed)) for seed in (5, 6)]
        sizes, n_bits = (48, 20), cfg.params.bits_per_slot
        errors, feasible, rows = mc._run_group(cfg.params, model, "rechoose", rngs, sizes)
        assert errors.shape == feasible.shape == (sum(sizes),) and rows is None
        if pr_h1 > 0.5:
            assert not feasible.all()
        for rng, slots in zip(rngs, sizes):
            assert rng.draws == [
                ("random", np.float64, slots * 32),
                ("standard_exponential", np.float64, slots * 32),
                ("standard_normal", np.float64, slots * (k - 1)),
                ("integers", np.uint8, -(-slots * n_bits * k // 8)),
                ("standard_normal", np.float64, slots * n_bits),
            ]

    def test_group_peak_memory(self):
        # a 240-slot K=8 group holds its draws, int16 chips and one float
        # copy of 32 slots' bits at a time, and its receiver adds the signal
        # and noise terms 32 slots at a time: its traced peak stays within
        # 1.1 MB (a reused (B, I) term buffer took 1.15 MB, int64 chips and
        # a (B, K, N) gather index 1.86 MB)
        cfg = make_config(k=8)
        params, model = mc.point_params(cfg, 10.0), mc.derive_sensing(cfg).model
        sizes = [48] * 5
        rngs = [mc._stream(1, mc._PURPOSE_BATCH, 0, b) for b in range(len(sizes))]
        mc._run_group(params, model, "rechoose", rngs, sizes)  # fills the placement table
        rngs = [mc._stream(1, mc._PURPOSE_BATCH, 0, b) for b in range(len(sizes))]
        tracemalloc.start()
        try:
            mc._run_group(params, model, "rechoose", rngs, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1e6

    def test_trace_draws_only_from_its_own_stream(self):
        # a traced group draws the untraced group's numbers and counts the
        # same errors; the normals that split R_n from R_GI come only from
        # each batch's trace stream, one per bit interval
        cfg = make_config(k=4, params=SystemParams(
            n_subcarriers=32, n_users=4, pr_h1=0.9, noise_psd=0.1, interference_power=0.1
        ))
        model = mc.derive_sensing(cfg).model
        sizes, n_bits = (48, 20), cfg.params.bits_per_slot
        plain = [RecordingGenerator(np.random.default_rng(seed)) for seed in (5, 6)]
        errors, feasible, _ = mc._run_group(cfg.params, model, "rechoose", plain, sizes)
        batch_rngs = [RecordingGenerator(np.random.default_rng(seed)) for seed in (5, 6)]
        trace_rngs = [RecordingGenerator(np.random.default_rng(seed)) for seed in (7, 8)]
        traced, traced_feasible, rows = mc._run_group(
            cfg.params, model, "rechoose", batch_rngs, sizes, trace_rngs, 100
        )
        assert [r.draws for r in batch_rngs] == [r.draws for r in plain]
        assert [r.draws for r in trace_rngs] == [
            [("standard_normal", np.float64, slots * n_bits)] for slots in sizes
        ]
        assert np.array_equal(traced, errors) and np.array_equal(traced_feasible, feasible)
        assert not feasible.all()
        # the error count by comparison agrees with the trace's decided bits
        # on every slot that transmitted
        sent = np.unique(rows["slot"])
        assert np.array_equal(sent - 100, np.flatnonzero(feasible))
        for slot in sent:
            mine = rows[rows["slot"] == slot]
            assert errors[slot - 100] == np.count_nonzero(mine["bit"] != mine["decided"])
        # a slot that cannot carry all users has R = 0 and decides +1, so
        # its errors are its first user's -1 bits (replayed in each batch's
        # draw order from its own stream)
        first_slot = 0
        for seed, slots in zip((5, 6), sizes):
            replay = np.random.default_rng(seed)
            replay.random((slots, 32))
            replay.standard_exponential((slots, 32))
            replay.standard_normal((slots, 3))
            n_sent = slots * n_bits * 4
            packed = replay.integers(0, 256, -(-n_sent // 8), dtype=np.uint8)
            first = np.unpackbits(packed, count=n_sent).reshape(slots, n_bits, 4)[:, :, 0]
            for s in np.flatnonzero(~feasible[first_slot:first_slot + slots]):
                assert errors[first_slot + s] == np.count_nonzero(first[s] == 0)
            first_slot += slots

    def test_trace_leaves_the_point_unchanged(self):
        cfg = make_config(snr_grid_db=(5.0,), trials_min=2_000, target_error_events=30)
        rows = []
        assert mc.estimate_ber(cfg, 5.0, 0, trace=rows) == mc.estimate_ber(cfg, 5.0, 0)
        assert rows

    def test_zero_errors_rule_of_three(self):
        cfg = make_config(k=1, snr_grid_db=(40.0,), trials_min=1_000, max_trials=20_000)
        p = mc.estimate_ber(cfg, 40.0, 0)
        assert p.errors == 0
        assert p.ber_simulated == 0.0
        assert p.ci_halfwidth == pytest.approx(3.0 / p.trials)

    def test_moderate_snr_agreement(self):
        # simulated and closed-form BER agree within the combined tolerance
        cfg = make_config(snr_grid_db=(2.0,))
        p = mc.estimate_ber(cfg, 2.0, 0)
        assert abs(p.ber_simulated - p.ber_analytic) <= max(
            3 * p.ci_halfwidth, 0.2 * p.ber_analytic
        )

    def test_point_index_must_fit_the_key(self):
        cfg = make_config(trials_min=500, target_error_events=20)
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="point index"):
                mc.estimate_ber(cfg, 5.0, point_index=bad)
        assert mc.estimate_ber(cfg, 5.0, point_index=2**32 - 1).trials >= 500

    def test_master_seed_must_fit_the_key(self):
        # masking a seed outside [0, 2^64) would alias another seed's streams
        for bad in (-1, 2**64):
            cfg = make_config(trials_min=500, target_error_events=20, master_seed=bad)
            with pytest.raises(ValueError, match="master seed"):
                mc.estimate_ber(cfg, 5.0, 0)
        cfg = make_config(trials_min=500, target_error_events=20, master_seed=2**64 - 1)
        assert mc.estimate_ber(cfg, 5.0, 0).trials >= 500

    def test_trace_rows(self):
        cfg = make_config(snr_grid_db=(5.0,), trials_min=100, target_error_events=5)
        blocks = []
        p = mc.estimate_ber(cfg, 5.0, 0, trace=blocks)
        rows = np.concatenate(blocks)
        # one row per bit of every simulated slot that transmitted, in order
        assert rows.size == p.trials - p.infeasible_slots * cfg.params.bits_per_slot
        assert np.all(np.diff(rows["slot"]) >= 0)
        assert np.count_nonzero(rows["slot"] == 0) == cfg.params.bits_per_slot
        # decomposition recorded in the trace holds row by row
        parts = rows["R_s"] + rows["R_MAI"] + rows["R_GI"] + rows["R_n"]
        assert np.allclose(rows["R"], parts, rtol=1e-9, atol=1e-12)

    def test_trace_csv_formats_every_row(self):
        rows = np.zeros(2, mc.TRACE_DTYPE)
        rows[0] = (3, 1, 2, 0, -0.5, 1.25, -1e-300, 0.0, 2.0 / 3.0, -1, 1)
        text = mc.trace_csv([rows[:1], rows[1:]], comments=("hello",))
        assert text == (
            "# hello\n" + mc.TRACE_HEADER + "\n"
            "3,1,2,0,-5.0000000000e-01,1.2500000000e+00,-1.0000000000e-300,"
            "0.0000000000e+00,6.6666666667e-01,-1,1\n"
            "0,0,0,0,0.0000000000e+00,0.0000000000e+00,0.0000000000e+00,"
            "0.0000000000e+00,0.0000000000e+00,0,0\n"
        )
        # the rows read back as the tuples the trace once appended, and
        # print as that per-row f-string printed them
        rng = np.random.default_rng(3)
        rows = np.zeros(500, mc.TRACE_DTYPE)
        for name in ("R", "R_s", "R_MAI", "R_GI", "R_n"):
            rows[name] = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        rows["slot"] = rng.integers(0, 10**6, 500)
        rows["bit"] = rng.choice([-1, 1], 500)
        want = [mc.TRACE_HEADER] + [
            f"{s},{nb},{ne},{nm},{R:.10e},{rs:.10e},{rm:.10e},{rg:.10e},{rn:.10e},{b},{d}"
            for s, nb, ne, nm, R, rs, rm, rg, rn, b, d in rows.tolist()
        ]
        assert mc.trace_csv([rows[:123], rows[123:]]) == "\n".join(want) + "\n"


class TestGroups:
    """A point runs its batches in groups; the group size must not show."""

    @staticmethod
    def _runs(monkeypatch, cfg, snr, point_index=0):
        """(point, trace rows, slots drawn) at the default group budget, then at one batch."""
        drawn = []
        run_group = mc._run_group

        def counting(params, model, policy, rngs, sizes, *rest):
            drawn.append(sum(sizes))
            return run_group(params, model, policy, rngs, sizes, *rest)

        monkeypatch.setattr(mc, "_run_group", counting)
        out = []
        for budget in (mc._GROUP_SLOTS, 1):
            monkeypatch.setattr(mc, "_GROUP_SLOTS", budget)
            drawn.clear()
            blocks = []
            point = mc.estimate_ber(cfg, snr, point_index, trace=blocks)
            out.append((point, np.concatenate(blocks), sum(drawn), len(drawn)))
        return out

    @pytest.mark.parametrize("case", [
        "events", "cap_clipped", "trials_min", "infeasible", "fixed", "k1",
    ])
    def test_group_size_leaves_results(self, monkeypatch, case):
        params = dict(n_subcarriers=32, n_users=4, pr_h1=0.2, noise_psd=0.1,
                      interference_power=0.1)
        run = {}
        snr = 10.0  # 100 events take 7 batches
        if case == "cap_clipped":  # 334 slots: 5 batches, then 48 + 46
            run = dict(target_error_events=10**9, max_trials=30_000)
        elif case == "trials_min":  # 100 events come long before 40k bits
            run = dict(trials_min=40_000)
            snr = 5.0
        elif case == "infeasible":
            params["pr_h1"] = 0.9
            run = dict(target_error_events=5_000)
        elif case == "fixed":
            params["n_subcarriers"] = 16
            run = dict(code_policy="fixed")
            snr = 15.0
        elif case == "k1":
            params["n_users"] = 1
            snr = 5.0
        cfg = make_config(k=params["n_users"], params=SystemParams(**params),
                          snr_grid_db=(snr,), **run)
        (point, rows, drawn, passes), (one_point, one_rows, one_drawn, one_passes) = (
            self._runs(monkeypatch, cfg, snr)
        )
        assert point == one_point
        assert rows.tolist() == one_rows.tolist()
        assert one_drawn == point.trials // cfg.params.bits_per_slot  # nothing speculative
        assert drawn >= one_drawn and passes < one_passes
        if case == "cap_clipped":
            assert point.trials == 30_060 and passes == 2
        if case == "trials_min":
            assert point.trials == 43_200 and point.errors > cfg.target_error_events
        if case == "infeasible":
            assert point.infeasible_slots > 0

    def test_batches_past_the_stop_are_discarded(self, monkeypatch):
        # a closed form ten times too low plans a group past the stop: the
        # batches after it are drawn and leave no errors, slots or rows
        average_pe = mc.average_pe
        monkeypatch.setattr(mc, "average_pe", lambda *a: average_pe(*a) / 10)
        cfg = make_config(snr_grid_db=(10.0,), target_error_events=50)
        (point, rows, drawn, _), (one_point, one_rows, one_drawn, _) = (
            self._runs(monkeypatch, cfg, 10.0)
        )
        assert drawn > one_drawn == point.trials // cfg.params.bits_per_slot
        assert point == one_point and rows.tolist() == one_rows.tolist()
        assert rows["slot"].max() < one_drawn

    def test_group_planning(self):
        cfg = make_config(trials_min=2_000, target_error_events=100, max_trials=5_000_000)
        budget = mc._GROUP_SLOTS // mc._BATCH_SLOTS
        assert budget == 5
        cap = -(-cfg.max_trials // 90)

        def plan(analytic, slots=0, sum_e=0, **over):
            c = dataclasses.replace(cfg, **over)
            return mc._group_batches(c, analytic, 90, -(-c.max_trials // 90), slots, sum_e)

        # 100 events at 1e-2 need 111.1 slots: 3 batches
        assert plan(1e-2) == 3
        # the budget caps a rare point, and a point with no closed-form errors
        assert plan(1e-9) == plan(0.0) == budget
        # events in hand: trials_min alone (2000 bits = 23 slots) decides
        assert plan(1e-2, slots=0, sum_e=100) == 1
        assert plan(1e-9, sum_e=100, trials_min=90_000) == 5
        # never past the cap, never less than one batch
        assert plan(1e-9, slots=cap - 10) == 1
        assert plan(0.5, slots=48, sum_e=10**6) == 1

class TestSweep:
    def test_thread_count_invariance(self):
        cfg = make_config(trials_min=1_000, target_error_events=40)
        jobs = mc.grid_jobs(cfg)
        p1 = mc.run_points(jobs, workers=1)
        p3 = mc.run_points(jobs, workers=3)
        assert p1 == p3
        digest = mc.config_digest(cfg)
        assert mc.ber_csv([(p.snr_db, p) for p in p1], digest) == mc.ber_csv(
            [(p.snr_db, p) for p in p3], digest
        )

    def test_points_sorted_and_digest_stable(self):
        cfg = make_config(snr_grid_db=(10.0, 5.0), trials_min=500, target_error_events=20)
        points = mc.run_points(mc.grid_jobs(cfg))
        snrs = [p.snr_db for p in points]
        assert snrs == sorted(snrs)
        # each point keeps the stream of its position on the configured grid
        assert points[0] == mc.estimate_ber(cfg, 5.0, 1)
        same = make_config(snr_grid_db=(10.0, 5.0), trials_min=500, target_error_events=20)
        assert mc.config_digest(same) == mc.config_digest(cfg)
        assert len(mc.config_digest(cfg)) == 64

    def test_digest_sensitive_to_seed(self):
        a = mc.config_digest(make_config())
        b = mc.config_digest(make_config(master_seed=1))
        assert a != b

    def test_analytic_only(self):
        cfg = make_config()
        points = mc.run_points(mc.grid_jobs(cfg), simulate=False)
        assert all(p.ber_simulated is None for p in points)
        rows = [(p.snr_db, p) for p in points]
        short = mc.ber_csv(rows, mc.config_digest(cfg)).splitlines()
        assert short[1] == "snr_db,ber_analytic"
        assert all(len(line.split(",")) == 2 for line in short[1:])
        # one simulated point brings the simulation columns, empty on the rest
        mixed = rows[:1] + [(5.0, mc.estimate_ber(make_config(trials_min=90, max_trials=90), 5.0, 0))]
        lines = mc.ber_csv(mixed, mc.config_digest(cfg)).splitlines()
        assert lines[1] == "snr_db,ber_analytic,ber_sim,ci_halfwidth,trials,errors"
        assert lines[2].endswith(",,,0,0") and lines[3].split(",")[2]

    def test_pool_workers_capped_by_jobs_and_cores(self, recording_pool, monkeypatch):
        jobs = mc.grid_jobs(make_config(snr_grid_db=(5.0, 10.0, 15.0, 20.0, 25.0)))
        serial = mc.run_points(jobs, simulate=False)
        for cores, workers, n_jobs in [(2, 100, 5), (8, 100, 5), (8, 3, 5), (8, 100, 2)]:
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
            assert mc.run_points(jobs[:n_jobs], simulate=False, workers=workers) == serial[:n_jobs]
        assert recording_pool == [2, 5, 3, 2]
        # one core, or one job, runs in this process
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0})
        mc.run_points(jobs, simulate=False, workers=4)
        mc.run_points(jobs[:1], simulate=False, workers=4)
        assert recording_pool == [2, 5, 3, 2]

    def test_pool_workers_capped_by_cpu_count_without_affinity(self, recording_pool,
                                                               monkeypatch):
        # where the system keeps no affinity set, os.cpu_count() gives the cores
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        jobs = mc.grid_jobs(make_config(snr_grid_db=(5.0, 10.0, 15.0, 20.0, 25.0)))
        serial = mc.run_points(jobs, simulate=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        assert mc.run_points(jobs, simulate=False, workers=100) == serial
        assert recording_pool == [3]
        # a count os.cpu_count() cannot tell (None) runs in this process
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc.run_points(jobs, simulate=False, workers=100) == serial
        assert recording_pool == [3]

    def test_csv_layout(self):
        cfg = make_config(trials_min=500, target_error_events=20)
        points = mc.run_points(mc.grid_jobs(cfg))
        rows = [(p.snr_db, p) for p in points]
        lines = mc.ber_csv(rows, mc.config_digest(cfg), comments=("hello",)).splitlines()
        assert lines[0] == "# hello"
        assert lines[1].startswith("# digest=")
        assert lines[2] == "snr_db,ber_analytic,ber_sim,ci_halfwidth,trials,errors"
        assert len(lines) == 3 + len(points)


class TestStatistics:
    def test_ci_coverage_on_synthetic_bernoulli(self):
        # the reported interval must cover the true rate ~95% of the time
        rng = np.random.default_rng(2024)
        p_true, n, reps = 0.05, 4_000, 1_000
        covered = 0
        for _ in range(reps):
            errs = rng.binomial(n, p_true)
            p_hat = errs / n
            ci = 1.96 * math.sqrt(p_hat * (1 - p_hat) / n) if errs else 3.0 / n
            covered += int(abs(p_hat - p_true) <= ci)
        assert covered / reps >= 0.93

    def test_slot_interval_covers_clustered_errors(self):
        # every slot's 90 bits share a random error rate (Beta(1, 19), mean
        # 0.05), as a slot's bits share one fading draw: the slot-level
        # interval keeps its coverage, the Wald interval over bits loses it
        rng = np.random.default_rng(2025)
        p_true, slots, bits, reps = 0.05, 1_000, 90, 1_000
        errs = rng.binomial(bits, rng.beta(1.0, 19.0, (reps, slots)))
        covered = wald_covered = 0
        for e in errs:
            p_hat = e.sum() / (slots * bits)
            ci = mc.slot_interval(int(e.sum()), int(np.dot(e, e)), slots, bits)
            wald = 1.96 * math.sqrt(p_hat * (1 - p_hat) / (slots * bits))
            covered += int(abs(p_hat - p_true) <= ci)
            wald_covered += int(abs(p_hat - p_true) <= wald)
        assert covered / reps >= 0.93
        assert wald_covered / reps < 0.8

    def test_slot_interval_edge_cases(self):
        assert mc.slot_interval(0, 0, 10, 90) == pytest.approx(3.0 / 900)
        assert mc.slot_interval(5, 25, 1, 90) == 1.0
        # equal counts in every slot: no spread between slots
        assert mc.slot_interval(20, 40, 10, 90) == 0.0

    def test_error_floor_contrast_simulated(self):
        # K=8 is interference-limited: tenfold noise reduction barely helps
        cfg = make_config(k=8, snr_grid_db=(20.0, 30.0), trials_min=20_000)
        p20 = mc.estimate_ber(cfg, 20.0, 0)
        p30 = mc.estimate_ber(cfg, 30.0, 1)
        assert p30.ber_simulated / p20.ber_simulated > 0.5

    def test_more_users_more_errors(self):
        vals = []
        for k in (2, 4, 8):
            cfg = make_config(k=k, snr_grid_db=(10.0,), trials_min=20_000)
            vals.append(mc.estimate_ber(cfg, 10.0, 0).ber_simulated)
        assert vals[0] < vals[1] < vals[2]


class TestRunConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            make_config(snr_grid_db=())

    def test_cap_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            make_config(trials_min=1_000, max_trials=500)
