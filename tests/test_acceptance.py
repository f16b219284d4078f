"""Release gate: one test per acceptance criterion.

Each test evaluates its criterion at the stated tolerance, prints a
single PASS/FAIL line (run with -s to see them live) and then asserts.
Budgets are asserted as wall-clock bounds.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from fsocdma import cli
from fsocdma import montecarlo as mc
from fsocdma import orthocodes as oc
from fsocdma import sensing as sn
from fsocdma.ber_analysis import average_pe
from fsocdma.phylink import SystemParams
from fsocdma.sensing import DetectorConfig, OccupancyModel
from oracles import enum_average_pe, exact_average_pe, loop_average_pe, sample_level_rate
from test_phylink import fixed_mask_components

MASTER_SEED = 24601


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_code_construction():
    t0 = time.perf_counter()
    failures = []
    orders = oc.supported_orders(64)
    for n in orders:
        code = oc.build(n)
        rep = oc.verify(code.entries)
        if not (rep.is_orthogonal and rep.all_nonzero):
            failures.append(f"order {n} failed verification")
        if not np.array_equal(np.diagonal(rep.gram), code.gram_diag):
            failures.append(f"order {n} Gram diagonal mismatch")
    for pa, pb in itertools.product(oc.SUPPORTED_PRIMES, repeat=2):
        a, b = oc.prime_base(pa), oc.prime_base(pb)
        got = oc.verify(oc.compose(a, b).entries).gram
        want = np.kron(oc.verify(a.entries).gram, oc.verify(b.entries).gram)
        if not np.array_equal(got, want):
            failures.append(f"composition law failed for ({pa},{pb})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    ok = report(
        1,
        not failures,
        f"{len(orders)} orders + {len(oc.SUPPORTED_PRIMES)**2} composition pairs "
        f"exact in {elapsed:.2f}s",
    )
    assert ok, failures


def test_criterion_2_sensing_formulas():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(MASTER_SEED)
    trials = 1_000_000
    cases = [(5, 10.0), (320, 640.0)]
    for samples, zeta in cases:
        detector = DetectorConfig(samples, 2.3)
        for occupied, closed, name in (
            (False, sn.pfa(detector, zeta), "pfa"),
            (True, sn.pd_rayleigh(detector, zeta), "pd"),
        ):
            emp = sample_level_rate(detector, occupied, zeta, trials, rng)
            se = math.sqrt(closed * (1.0 - closed) / trials)
            dev = abs(emp - closed) / se
            if dev > 3.0:
                failures.append(
                    f"{name} at samples={samples}: {emp:.6f} vs {closed:.6f} ({dev:.1f} se)"
                )
    for samples in (5, 320):
        detector = DetectorConfig(samples, 2.3)
        for mode, closed_form in (("for_pfa", sn.pfa), ("for_pd", sn.pd_rayleigh)):
            for target in np.arange(0.01, 0.999, 0.02):
                zeta = sn.solve_threshold(detector, float(target), mode)
                achieved = closed_form(detector, zeta)
                if abs(achieved - target) > 1e-8:
                    failures.append(f"round-trip {mode}@{samples} target {target:.2f}")
                    break
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    ok = report(
        2,
        not failures,
        f"1e6-draw Monte Carlo within 3 se and 98 threshold round-trips in {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_3_average_pe_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    model = OccupancyModel.from_fused(0.2, qd=0.95, qfa=0.05)
    cases = [(n, k, "rechoose") for n in (4, 6) for k in (1, 2)]
    # the fixed policy's sum over chip classes: the one class of order 4 and
    # multi-level families with 2 to 6 classes, against both oracles
    cases += [(n, k, "fixed") for n in (4, 6, 7, 9) for k in range(1, 5)]
    for n, k, policy in cases:
        params = SystemParams(
            n_subcarriers=n, n_users=k, pr_h1=0.2,
            noise_psd=0.1, interference_power=0.1,
        )
        got = average_pe(params, model, policy)
        args = (n, k, model.p_zero, model.p_mis, 1.0, 0.1, 0.1, policy)
        oracles = {"enumeration": enum_average_pe(*args)}
        if policy == "fixed":
            oracles["cell loop"] = loop_average_pe(*args)
        for name, want in oracles.items():
            if abs(got - want) > 1e-12:
                failures.append(f"N={n} K={k} {policy} vs {name}: {got!r} vs {want!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    ok = report(
        3,
        not failures,
        f"exhaustive-state enumeration matched rechoose at N=4,6 (K=1,2); "
        f"fixed-policy chip classes matched enumeration and cell loop at N=4,6,7,9 "
        f"(K=1..4), in {elapsed:.1f}s",
    )
    assert ok, failures


def _fig_run_config(k: int, **overrides) -> mc.RunConfig:
    params = SystemParams(
        n_subcarriers=32, n_users=k, pr_h1=0.2, noise_psd=0.1, interference_power=0.1
    )
    det = DetectorConfig(320, 2.3 + 10 * math.log10(320))
    defaults = dict(
        params=params,
        detector=det,
        target_pd=0.95,
        snr_grid_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        trials_min=2_000,
        target_error_events=100,
        max_trials=5_000_000,
        master_seed=MASTER_SEED,
    )
    defaults.update(overrides)
    return mc.RunConfig(**defaults)


def test_criterion_4_snr_sweep_reproduction():
    t0 = time.perf_counter()
    failures = []
    curves = {}
    exact = {}
    for k in (4, 8):
        cfg = _fig_run_config(k)
        curves[k] = mc.run_points(mc.grid_jobs(cfg), workers=2)
        model = mc.derive_sensing(cfg).model
        for snr in cfg.snr_grid_db:
            pp = mc.point_params(cfg, snr)
            exact[k, snr] = exact_average_pe(
                pp.n_subcarriers, k, model.p_zero, model.p_mis,
                1.0, pp.noise_psd, pp.interference_power,
            )

    # The simulation is held to the exact BER of its own receiver; the
    # Gaussian surrogate ber_analytic must bound that value from above.
    print()
    print("  K  snr_db  ber_sim      ber_exact    ber_surrogate  |diff|/tol  events")
    for k in (4, 8):
        for p in curves[k]:
            ref = exact[k, p.snr_db]
            tol = max(3 * p.ci_halfwidth, 0.2 * ref)
            diff = abs(p.ber_simulated - ref)
            flag = ""
            if p.ber_analytic >= 1e-3 and diff > tol:
                failures.append(
                    f"K={k} {p.snr_db:g}dB: |{p.ber_simulated:.3e} - {ref:.3e}|"
                    f" > {tol:.3e}"
                )
                flag = "  <-- outside tolerance"
            if not ref <= p.ber_analytic:
                failures.append(
                    f"K={k} {p.snr_db:g}dB: exact {ref:.3e} above surrogate {p.ber_analytic:.3e}"
                )
            print(
                f"  {k}  {p.snr_db:6g}  {p.ber_simulated:.5e}  {ref:.5e}  {p.ber_analytic:.5e}"
                f"    {diff / tol:9.2f}  {p.errors:6d}{flag}"
            )
            if p.errors < 100 and p.trials < 5_000_000:
                failures.append(f"K={k} {p.snr_db:g}dB: only {p.errors} error events")

    for p4, p8 in zip(curves[4], curves[8]):
        if not p4.ber_simulated < p8.ber_simulated:
            failures.append(
                f"K=4 not strictly below K=8 at {p4.snr_db:g}dB "
                f"({p4.ber_simulated:.3e} vs {p8.ber_simulated:.3e})"
            )
    by_snr = {p.snr_db: p.ber_simulated for p in curves[8]}
    floor_ratio = by_snr[30.0] / by_snr[20.0]
    if not floor_ratio > 0.5:
        failures.append(f"K=8 floor ratio {floor_ratio:.2f} <= 0.5")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10min")
    ok = report(
        4,
        not failures,
        f"K=4 below K=8 everywhere, K=8 floor ratio {floor_ratio:.2f}, "
        f"exact-reference agreement and surrogate bound over 12 points in {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_5_user_sweep_reproduction():
    t0 = time.perf_counter()
    failures = []
    snrs = (10.0, 20.0)
    k_values = tuple(range(1, 9))
    curves: dict[float, list] = {}
    for si, snr in enumerate(snrs):
        pts = []
        for k in k_values:
            cfg = _fig_run_config(
                k,
                snr_grid_db=(snr,),
                target_error_events=400,
                trials_min=50_000,
            )
            pts.append(mc.estimate_ber(cfg, snr, point_index=64 * si + k))
        curves[snr] = pts

    print()
    for snr in snrs:
        sims = ", ".join(f"K{k}={p.ber_simulated:.2e}" for k, p in zip(k_values, curves[snr]))
        print(f"  snr {snr:g} dB: {sims}")
    for snr in snrs:
        sims = [p.ber_simulated for p in curves[snr]]
        for a, b, k in zip(sims, sims[1:], k_values):
            if b < a:
                failures.append(f"BER decreased from K={k} to K={k+1} at {snr:g}dB")
    for k_idx in (0, 1):  # small K: the higher-SNR curve must sit below
        low = curves[10.0][k_idx].ber_simulated
        high = curves[20.0][k_idx].ber_simulated
        if not high < low:
            failures.append(
                f"20dB not below 10dB at K={k_values[k_idx]} ({high:.2e} vs {low:.2e})"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10min")
    ok = report(
        5,
        not failures,
        f"BER nondecreasing in K at 10 and 20 dB, high-SNR curve below at small K "
        f"in {elapsed:.1f}s",
    )
    assert ok, failures


def test_criterion_6_thread_determinism(tmp_path):
    failures = []
    fast = [
        "--set", "run.snr_grid_db=5,15",
        "--set", "run.trials_min=1000",
        "--set", "run.target_error_events=50",
        "--seed", str(MASTER_SEED),
    ]
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / f"ber_t{threads}.csv"
        rc = cli.main(["ber", "--threads", str(threads), "--out", str(out)] + fast)
        if rc != 0:
            failures.append(f"ber run failed with --threads {threads}")
        outputs[threads] = out.read_bytes()
    if outputs[1] != outputs[4]:
        failures.append("ber output differs across worker counts")
    selftest = []
    for run in (1, 2):
        out = tmp_path / f"self_{run}.txt"
        rc = cli.main(["selftest", "--out", str(out), "--seed", str(MASTER_SEED)])
        if rc != 0:
            failures.append(f"selftest run {run} failed")
        selftest.append(out.read_bytes())
    if selftest[0] != selftest[1]:
        failures.append("two selftest runs differ")
    ok = report(6, not failures, "ber output byte-identical for 1 and 4 worker processes, "
                "two selftest runs identical")
    assert ok, failures


def test_criterion_7_receiver_moment_checks():
    t0 = time.perf_counter()
    failures = []
    trials = 100_000
    n, k, m, n_lam = 32, 4, 16, 3
    params = SystemParams(
        n_subcarriers=n, n_users=k, pr_h1=0.2, noise_psd=0.2, interference_power=0.3
    )
    eb = 1.0
    n_free = n - m
    est = np.zeros(n, bool)
    est[:m] = True
    lam = list(range(m, m + n_lam))
    rng = np.random.default_rng(MASTER_SEED)
    comps = fixed_mask_components(params, est, lam, trials, rng)
    want = np.array(
        [
            eb**2 / n_free,
            (k - 1) * eb**2 / (2 * n_free),
            eb * n_lam * params.interference_power / (2 * n_free),
            eb * params.noise_psd / 2,
        ]
    )
    got = comps.var(axis=0, ddof=1)
    m4 = ((comps - comps.mean(axis=0)) ** 4).mean(axis=0)
    se = np.sqrt(np.maximum(m4 - got**2, 1e-30) / trials)
    names = ("var_s", "var_mai", "var_gi", "var_n")
    for name, g, w, s in zip(names, got, want, se):
        dev = abs(g - w) / s
        if dev > 3.0:
            failures.append(f"{name}: {g:.5e} vs {w:.5e} ({dev:.1f} se)")
    mean_se = math.sqrt(want[0] / trials)
    if abs(comps[:, 0].mean() - eb) > 3 * mean_se:
        failures.append(f"mean(R_s) {comps[:, 0].mean():.5f} != {eb}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    ok = report(
        7,
        not failures,
        f"four variance terms within 3 se of closed forms at {trials} trials "
        f"in {elapsed:.1f}s",
    )
    assert ok, failures
