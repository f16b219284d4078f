"""Deterministic Monte Carlo BER estimation over slots and SNR sweeps.

Slots are simulated in stop-rule batches of _BATCH_SLOTS slots, and every
batch draws from its own counter-based random stream (Philox keyed by
master seed, sweep-point index and batch index).  Results are therefore
bitwise independent of evaluation order and worker count.  Error and bit
counters are plain integers aggregated in slot order; the stopping rule is
evaluated at batch boundaries, keeping the set of simulated slots a pure
function of the configuration.  The last batch is clipped to the slots
that reach max_trials, so a point never simulates past its cap.

Every random number of a BER run is drawn in _run_group; phylink draws none.
A batch draws, per slot, one uniform and one Exp(1) fade per subcarrier,
one normal per interferer, the K bits of every bit interval packed eight
to a byte, and one normal per bit interval (see phylink for why these
suffice).  Alongside the error counts, a point sums SLOT_STATS over its
feasible slots, from each slot's masks and projections: they draw no
random number, and the means of the last four are the variances of R_s,
R_MAI, R_GI and R_n.

A point runs its batches in groups, one array pass per group: every
batch of a group draws from its own stream into its rows of the group's
arrays, and the codes, projections, receiver and error count then run
once for the group.  A group holds the batches the point still needs to
stop, as its closed-form BER predicts, within a budget of _GROUP_SLOTS
slots.  The stop rule still walks the group batch by batch on that
batch's own error counts; a batch past the stop was drawn but is
discarded, and adds no errors, slots or sums.  Every computation
on a slot is row-wise, so a slot's numbers do not depend on the group it
ran in: the group size changes no output byte, and the stream version
stays.

A slot's bits share one fading draw, so the slots, not the bits, are the
independent samples: the reported interval is the slot-level (cluster)
interval on the mean error count per slot.

SNR is the per-bit ratio E_b / noise_psd, with energies in units of E_b;
a sweep sets the noise PSD to 1 / SNR per point and keeps the configured
interference-to-noise ratio fixed.  The SNR leaves the sensing operating
point alone: the points of one RunConfig share one sensing.operating_point.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ber_analysis import average_pe
from .phylink import SystemParams, build_slots, project, receive
from .sensing import DetectorConfig, OperatingPoint, operating_point

try:  # CPython's own SHA-256, as random.py takes it: hashlib would load OpenSSL
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

# Version of the mapping from (config, seed) to random draws.  Bump it
# whenever a change alters which numbers a run draws or how it uses them;
# every ber CSV header records it.  Version 1 drew one stream per slot and
# the full per-subcarrier noise; version 2 draws one stream per batch and
# the receiver's projections only; version 3 draws only the slot's
# sufficient statistics (one uniform and one fade per subcarrier, one
# normal per interferer) and packed bits; version 4 draws one receiver
# normal per bit interval where version 3 drew two.
STREAM_VERSION = 4

_MASK64 = (1 << 64) - 1
_POINT_LIMIT = 1 << 32
_PURPOSE_BATCH = 3  # 1 and 2 keyed versions 1 and 2; 4, the retired per-bit trace's, is reserved

# Slots per stop-rule batch: the stop rule is checked, and a stream keyed,
# once per batch.
_BATCH_SLOTS = 48
# Slot budget of one array pass: a 240-slot capped point (5 batches of 48)
# runs in one pass, and a pass's arrays stay within a few MB at K=8, N=32.
_GROUP_SLOTS = 256

# Per-slot terms a point sums over its feasible slots: the sensing counts, then
# (S - 1)^2, sum_k m_k^2, sigma_s^2/2 ||w_Lambda||^2 and sigma_n^2/2 S, whose
# means are the variances of R_s, R_MAI, R_GI and R_n (see phylink).
SLOT_STATS = ("n_busy_true", "n_est_busy", "n_misdetected",
              "var_s", "var_mai", "var_gi", "var_n")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a BER run, including the master seed."""

    params: SystemParams
    detector: DetectorConfig
    target_pd: float = 0.95  # fused detection probability target
    snr_grid_db: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials_min: int = 2_000  # minimum bits per point
    target_error_events: int = 100  # stop once this many bit errors observed
    max_trials: int = 5_000_000  # hard cap on bits per point
    master_seed: int = 24601

    def __post_init__(self):
        at_least_one = "trials_min and target_error_events must be >= 1"
        checks = (  # (field, holds, why), reported as run.<field>=<value>: why
            ("target_pd", 0.0 < self.target_pd < 1.0, "must lie in the open interval (0, 1)"),
            ("snr_grid_db", bool(self.snr_grid_db), "snr grid must not be empty"),
            ("trials_min", self.trials_min >= 1, at_least_one),
            ("target_error_events", self.target_error_events >= 1, at_least_one),
            ("max_trials", self.max_trials >= self.trials_min,
             f"max_trials must be >= trials_min={self.trials_min}"),
            # a seed outside the 64-bit Philox key would alias another seed's streams
            ("master_seed", 0 <= self.master_seed <= _MASK64, "must lie in [0, 2^64)"),
        )
        for field, ok, why in checks:
            if not ok:
                raise ValueError(f"run.{field}={getattr(self, field)!r}: {why}")
        inr = self.params.interference_power / self.params.noise_psd
        for snr in self.snr_grid_db:
            try:
                ok = point_params(self, snr).interference_power > 0 or inr == 0
            except (ArithmeticError, ValueError):
                ok = False
            if not ok:
                raise ValueError(
                    f"run.snr_grid_db={snr!r}: the point's noise PSD 10^(-SNR/10) and its "
                    "interference power, params.inr_db above it, must be finite and positive"
                )


@dataclass(frozen=True)
class BerPoint:
    """One sweep point: analytic BER plus optional simulation results."""

    snr_db: float
    ber_analytic: float
    ber_simulated: float | None = None
    ci_halfwidth: float | None = None
    trials: int = 0
    errors: int = 0
    infeasible_slots: int = 0
    stop: str | None = None  # a simulated point's stop reason, "events" or "cap"
    slot_sums: tuple[float, ...] = ()  # its SLOT_STATS sums, for the trace

    def __post_init__(self):
        if (self.ber_simulated is None) != (self.ci_halfwidth is None):
            raise ValueError("ci_halfwidth must accompany ber_simulated")


def sha256_hex(text: str) -> str:
    """Hex SHA-256 digest of the UTF-8 bytes of text."""
    return _sha256(text.encode()).hexdigest()


def config_digest(cfg: RunConfig) -> str:
    """Content hash over every field that can change the results."""
    parts = []
    for obj, prefix in ((cfg.params, "params"), (cfg.detector, "detector")):
        for f in dataclasses.fields(obj):
            parts.append(f"{prefix}.{f.name}={getattr(obj, f.name)!r}")
    for f in dataclasses.fields(cfg):
        if f.name in ("params", "detector"):
            continue
        parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    return sha256_hex("\n".join(sorted(parts)))


def derive_sensing(cfg: RunConfig) -> OperatingPoint:
    """The run's sensing operating point; configs that agree on its inputs share one solve."""
    return operating_point(cfg.params.n_users, cfg.target_pd, cfg.detector, cfg.params.pr_h1)


def point_params(cfg: RunConfig, snr_db: float) -> SystemParams:
    """Link parameters at one sweep point: noise set by SNR, INR preserved."""
    inr = cfg.params.interference_power / cfg.params.noise_psd
    noise = 1.0 / 10.0 ** (snr_db / 10.0)
    return dataclasses.replace(
        cfg.params, noise_psd=noise, interference_power=inr * noise
    )


def _stream(
    master_seed: int, purpose: int, point_index: int, batch_index: int
) -> np.random.Generator:
    """The random stream of one (purpose, sweep point, batch); the only Philox key.

    numpy.random, and the OpenSSL it loads, is imported on first use, so
    a closed-form run never loads it.
    """
    from numpy.random import Generator, Philox

    if not 0 <= point_index < _POINT_LIMIT:
        raise ValueError(f"point index {point_index} outside [0, 2^32)")
    key = np.array([master_seed, (purpose << 32) | point_index], dtype=np.uint64)
    counter = np.array([0, batch_index & _MASK64, 0, 0], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


def _run_group(params, model, rngs, sizes):
    """Simulate consecutive batches in one array pass; batch j has sizes[j] slots.

    Batch j draws from rngs[j] exactly what it would draw alone, in the
    same order: one uniform per subcarrier, one Exp(1) fade per
    subcarrier, one normal per interferer, its bits (packed), then its
    receiver normals, each into its rows of the group's arrays.  The
    slots are then built, projected and received once for the group.  A
    slot that cannot carry all users has R = 0 and decides +1, so each of
    its bits is an error with probability 1/2, a coin flip.

    Returns (errors per slot, feasible per slot, (slots, SLOT_STATS)
    terms per slot, zero in the infeasible slots) over the group's slots.
    """
    n_bits = params.bits_per_slot
    k = params.n_users
    total = sum(sizes)
    u, fade = np.empty((2, total, params.n_subcarriers))
    mai_z = np.empty((total, k - 1))
    bits = np.empty((total, n_bits, k), dtype=np.int8)
    z = np.empty((total, n_bits))
    start = 0
    for rng, n_slots in zip(rngs, sizes):
        mine = slice(start, start + n_slots)
        rng.random(out=u[mine])
        rng.standard_exponential(out=fade[mine])
        rng.standard_normal(out=mai_z[mine])
        n_sent = n_slots * n_bits * k
        packed = rng.integers(0, 256, -(-n_sent // 8), dtype=np.uint8)
        bits[mine] = np.unpackbits(packed, count=n_sent).reshape(n_slots, n_bits, k)
        rng.standard_normal(out=z[mine])
        start += n_slots
    bits *= 2
    bits -= 1
    batch = build_slots(params, model, u, fade, mai_z)
    proj = project(batch, params)
    decision = receive(proj, bits, z)
    errors = np.count_nonzero((decision >= 0.0) != (bits[:, :, 0] > 0), axis=1)
    stats = np.empty((total, len(SLOT_STATS)))
    for col, mask in enumerate((batch.occupancy, batch.est_busy, batch.misdetected)):
        stats[:, col] = np.count_nonzero(mask, axis=1)
    stats[:, 3] = np.square(proj.signal - 1.0)
    stats[:, 4] = np.square(proj.mai).sum(axis=1)
    stats[:, 5] = proj.var_gi
    stats[:, 6] = proj.var_n
    stats[~batch.feasible] = 0.0
    return errors, batch.feasible, stats


def _group_batches(cfg, analytic, bits_per_slot, cap_slots, slots, sum_e) -> int:
    """Batches for the next array pass of a point that has run `slots` slots.

    As many as the point still needs to stop: to its cap, or to both
    trials_min and its remaining error events at its own closed-form BER
    (no event prediction when that is 0).  At least one, and at most the
    batches that fit in _GROUP_SLOTS.
    """
    to_cap = cap_slots - slots
    to_events = to_cap
    if analytic > 0:
        to_events = (cfg.target_error_events - sum_e) / (analytic * bits_per_slot)
    to_min = cfg.trials_min / bits_per_slot - slots
    need = min(to_cap, max(to_min, to_events))
    return max(1, min(math.ceil(need / _BATCH_SLOTS), _GROUP_SLOTS // _BATCH_SLOTS))


def slot_interval(sum_e: int, sum_e2: int, slots: int, bits_per_slot: int) -> float:
    """Half-width of the 95% interval on the BER from per-slot error counts.

    sum_e and sum_e2 are the sums of e_s and e_s^2 over the slots, e_s
    being slot s's bit errors.  The slots are the independent samples, so
    the half-width is 1.96 * sd(e_s) / (bits_per_slot * sqrt(slots)).  At
    zero errors it is the rule of three, 3 / bits; a single slot gives no
    spread estimate, so its interval is the whole probability range.
    """
    if sum_e == 0:
        return 3.0 / (slots * bits_per_slot)
    if slots < 2:
        return 1.0
    # exact integer numerator: S * sum e^2 - (sum e)^2 = S (S - 1) var(e_s)
    var = (slots * sum_e2 - sum_e * sum_e) / (slots * (slots - 1))
    return float(1.96 * np.sqrt(var / slots) / bits_per_slot)


def estimate_ber(cfg: RunConfig, snr_db: float, point_index: int) -> BerPoint:
    """Simulate one sweep point until the stopping rule fires.

    Stops at the first batch boundary where at least trials_min bits and
    target_error_events errors have accumulated ("events"), or else after
    ceil(max_trials / bits_per_slot) slots, the cap ("cap").
    Fully determined by (cfg, snr_db, point_index), point_index keying
    the point's random streams.  The point's slot_sums hold the
    SLOT_STATS terms summed over its feasible slots up to the stop, batch
    by batch in slot order, like the error counts.
    """
    params = point_params(cfg, snr_db)
    derived = derive_sensing(cfg)
    analytic = average_pe(params, derived.model)

    bits_per_slot = params.bits_per_slot
    cap_slots = -(-cfg.max_trials // bits_per_slot)
    sum_e = 0
    sum_e2 = 0
    sums = np.zeros(len(SLOT_STATS))
    infeasible = 0
    slots = 0
    batch_index = 0
    stopped = False
    while not stopped:
        n_batches = _group_batches(cfg, analytic, bits_per_slot, cap_slots, slots, sum_e)
        sizes = [  # full batches, the last one clipped at the cap
            min(_BATCH_SLOTS, cap_slots - slots - j * _BATCH_SLOTS) for j in range(n_batches)
        ]
        indices = range(batch_index, batch_index + len(sizes))
        rngs = [_stream(cfg.master_seed, _PURPOSE_BATCH, point_index, b) for b in indices]
        errors, feasible, stats = _run_group(params, derived.model, rngs, sizes)
        start = 0
        for n_slots in sizes:  # the stop rule, batch by batch, as if run one at a time
            batch = slice(start, start + n_slots)
            sum_e += int(errors[batch].sum())
            sum_e2 += int(np.dot(errors[batch], errors[batch]))
            infeasible += n_slots - int(np.count_nonzero(feasible[batch]))
            sums += stats[batch].sum(axis=0)
            start += n_slots
            slots += n_slots
            batch_index += 1
            bits_done = slots * bits_per_slot
            events = bits_done >= cfg.trials_min and sum_e >= cfg.target_error_events
            if events or slots >= cap_slots:
                stopped = True
                break

    return BerPoint(
        snr_db=snr_db,
        ber_analytic=analytic,
        ber_simulated=sum_e / bits_done,
        ci_halfwidth=slot_interval(sum_e, sum_e2, slots, bits_per_slot),
        trials=bits_done,
        errors=sum_e,
        infeasible_slots=infeasible,
        stop="events" if events else "cap",
        slot_sums=tuple(sums.tolist()),
    )


def analytic_point(cfg: RunConfig, snr_db: float) -> BerPoint:
    """Closed-form BER only, no simulation."""
    params = point_params(cfg, snr_db)
    return BerPoint(snr_db, average_pe(params, derive_sensing(cfg).model))


def grid_jobs(cfg: RunConfig) -> list[tuple[RunConfig, float, int]]:
    """One point job (config, SNR, point index) per grid value, sorted by SNR.

    The point index is the value's position on the grid, as configured.
    """
    jobs = [(cfg, snr, i) for i, snr in enumerate(cfg.snr_grid_db)]
    return sorted(jobs, key=lambda job: job[1])


def _run_job(job: tuple[RunConfig, float, int], simulate: bool) -> BerPoint:
    cfg, snr, point_index = job
    if simulate:
        return estimate_ber(cfg, snr, point_index=point_index)
    return analytic_point(cfg, snr)


def run_points(
    jobs: list[tuple[RunConfig, float, int]],
    simulate: bool = True,
    workers: int = 1,
) -> list[BerPoint]:
    """Run point jobs (config, SNR, point index) and return their points in job order.

    A point is a pure function of its job, so the result is identical for
    any worker count.  More than one worker runs the jobs over a process
    pool, in job order, with no more workers than jobs or than the cores
    this process may run on (all cores where the system keeps no affinity
    set).  A simulated run imports numpy.random before its first point, so
    that the forked workers inherit it and its memory lands before the
    points' arrays.
    """
    cores = 1
    if workers > 1:
        affinity = getattr(os, "sched_getaffinity", None)
        cores = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    workers = min(workers, len(jobs), cores)
    if simulate:
        import numpy.random  # noqa: F401
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(partial(_run_job, simulate=simulate), jobs))
    return [_run_job(job, simulate) for job in jobs]


def ber_csv(
    rows: list[tuple[float, BerPoint]],
    digest: str,
    comments: tuple[str, ...] = (),
    key: str = "snr_db",
) -> str:
    """BER export: comment block, digest, then one (key value, point) row each.

    The simulation columns appear when any point was simulated, and are
    empty for a point that was not.
    """
    simulated = any(p.ber_simulated is not None for _, p in rows)
    lines = [f"# {c}" for c in comments]
    lines.append(f"# digest={digest}")
    header = f"{key},ber_analytic"
    if simulated:
        header += ",ber_sim,ci_halfwidth,trials,errors"
    lines.append(header)
    for value, p in rows:
        line = f"{value:.6g},{p.ber_analytic:.10e}"
        if simulated:
            sim = "" if p.ber_simulated is None else f"{p.ber_simulated:.10e}"
            ci = "" if p.ci_halfwidth is None else f"{p.ci_halfwidth:.10e}"
            line += f",{sim},{ci},{p.trials},{p.errors}"
        lines.append(line)
    return "\n".join(lines) + "\n"


TRACE_HEADER = ",".join(("n_users", "snr_db", "slots", "bits", "errors", "infeasible_slots",
                         "stop") + SLOT_STATS)


def trace_csv(rows: list[tuple[RunConfig, BerPoint]], comments: tuple[str, ...] = ()) -> str:
    """Trace export: comment block, header, then one row per simulated (config, point).

    A row holds the point's counts, why it stopped, and the means of its
    SLOT_STATS over its feasible slots, empty for a point without one.
    """
    lines = [f"# {c}" for c in comments]
    lines.append(TRACE_HEADER)
    for cfg, p in rows:
        slots = p.trials // cfg.params.bits_per_slot
        feasible = slots - p.infeasible_slots
        means = [f"{total / feasible:.10e}" if feasible else "" for total in p.slot_sums]
        counts = (cfg.params.n_users, f"{p.snr_db:.6g}", slots, p.trials, p.errors,
                  p.infeasible_slots, p.stop)
        lines.append(",".join(map(str, counts + tuple(means))))
    return "\n".join(lines) + "\n"
