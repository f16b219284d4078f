"""Frequency-domain simulation of transmission slots, a batch at a time.

A slot: primary-user occupancy is drawn per subcarrier, every CR user
senses and the coordinator OR-fuses the decisions, signature codes are
chosen for the estimated-free subcarriers, all K users transmit their
bits over per-subcarrier Rayleigh fading, and the first user's receiver
forms the combining decision variable

    R = sum_n sqrt(P_n) * Re{ conj(beta_n) * c_n * r_n }

split into its desired-signal, multiple-access-interference, primary-
interference and noise components.  Each subcarrier is flat; no time
domain waveform is synthesized.

Once a slot's masks, chips and gains are fixed, R is linear in the bits,
the noise and the primary interference, so the receiver needs only its
projections.  With w_n = sqrt(P_1) c_1n conj(beta_1n),

    R = b_1 S + sum_{k>=2} b_k m_k
        + sqrt(sigma_n^2/2 ||w||^2 + sigma_s^2/2 ||w_Lambda||^2) z

where S = ||w||^2, m_k = Re sum_n sqrt(P_k) beta_kn c_kn w_n, Lambda is
the misdetected set and z is a standard normal.  The noise part
R_n ~ N(0, sigma_n^2/2 ||w||^2) and the primary-interference part
R_GI ~ N(0, sigma_s^2/2 ||w_Lambda||^2) are independent given the slot
and reach R only through their sum, so this has exactly the
distribution of drawing complex noise on every subcarrier and
interference on Lambda and projecting them onto w, at one normal per
bit interval instead of 2N plus the interference.  Each part's variance
over the slots is a mean of per-slot terms of the Projection, with no
bit or normal drawn: of (S - 1)^2 for R_s (E[S] = 1 in units of E_b),
of sum_k m_k^2 for R_MAI, and of the two noise variances above, which
the Projection holds as var_n and var_gi.

This module draws no random number: montecarlo draws a batch's numbers,
and a slot takes only what R depends on.  The OR-fused sensing outcome
of a subcarrier is one trinomial cell (misdetected, estimated busy,
free), so one uniform per subcarrier picks it.  |w_n|^2 needs only |beta_1n|^2,
an Exp(1) draw.  Given w, each beta_kn (k >= 2) is circular CN(0, 1) and
independent across (k, n), so m_k is exactly
N(0, P_k/2 sum_n c_kn^2 |w_n|^2): one standard normal per interferer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orthocodes import (
    ORDER_LIMIT,
    SUPPORTED_PRIMES,
    fixed_chip_classes,
    is_supported_order,
    largest_supported_order,
    rows,
)
from .sensing import OccupancyModel

CODE_POLICIES = ("rechoose", "fixed")
# the largest fixed-policy closed-form grid: the one chip class of the largest Walsh order
_GRID_LIMIT = (ORDER_LIMIT + 1) * (ORDER_LIMIT + 2) // 2


@dataclass(frozen=True)
class SystemParams:
    """Static link parameters shared by the analysis and the simulator.

    Energies are in units of the energy per bit E_b: user k's power is
    P_k = 1 / sum_n c_kn^2, and the SNR is 1 / noise_psd.  code_policy
    lays the CR users' codes on the estimated-free subcarriers, see
    signature_matrix.  The fixed policy needs a code family of order N
    whose chip classes (orthocodes.fixed_chip_classes) give a closed-form
    grid of at most _GRID_LIMIT cells, see ber_analysis.
    """

    n_subcarriers: int
    n_users: int
    pr_h1: float
    noise_psd: float = 0.1
    interference_power: float = 0.1
    bits_per_slot: int = 90  # bit intervals that share a fading draw and a sensing outcome
    code_policy: str = "rechoose"  # codes.policy, one of CODE_POLICIES

    def __post_init__(self):
        one = "need at least one subcarrier and one user"
        checks = (  # (field, holds, why), reported as params.<field>=<value>: why
            ("n_subcarriers", self.n_subcarriers >= 1, one),
            ("n_users", self.n_users >= 1, one),
            ("pr_h1", 0.0 <= self.pr_h1 <= 1.0, "pr_h1 must lie in [0, 1]"),
            ("noise_psd", 0 < self.noise_psd < np.inf, "noise PSD must be finite and positive"),
            ("interference_power", 0 <= self.interference_power < np.inf,
             "interference power must be finite and nonnegative"),
            ("bits_per_slot", self.bits_per_slot >= 1, "need at least one bit interval per slot"),
            ("n_users", largest_supported_order(self.n_subcarriers) >= self.n_users,
             f"{self.n_users} users exceed the largest supported code order "
             f"<= {self.n_subcarriers} subcarriers"),
        )
        for field, ok, why in checks:
            if not ok:
                raise ValueError(f"params.{field}={getattr(self, field)!r}: {why}")
        if self.code_policy not in CODE_POLICIES:
            raise ValueError(
                f"codes.policy={self.code_policy!r} is not one of {', '.join(CODE_POLICIES)}"
            )
        if self.code_policy != "fixed":
            return
        n, k = self.n_subcarriers, self.n_users  # the fixed policy spreads over one family
        if not is_supported_order(n):
            why = (
                f"exceeds the order limit {ORDER_LIMIT}"
                if n > ORDER_LIMIT
                else f"has a prime factor outside {SUPPORTED_PRIMES}"
            )
            raise ValueError(
                f"params.n_subcarriers={n} {why}, so codes.policy=fixed has no code family for it"
            )
        classes = fixed_chip_classes(n, k)
        cells = math.prod((c + 1) * (c + 2) // 2 for c, _, _ in classes)
        if cells > _GRID_LIMIT:
            raise ValueError(
                f"codes.policy=fixed at params.n_subcarriers={n} and params.n_users={k} "
                f"needs a closed-form grid of {cells} cells over {len(classes)} chip classes, "
                f"more than the {_GRID_LIMIT} of order {ORDER_LIMIT}"
            )


@lru_cache(maxsize=16)  # one entry per (K, N) in use; fig3 uses 8
def _placement_table(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zeroed tables of _placements: chips, energies and filled rows.

    Chips are int16 (n+1, k, n+1), energies int64 (n+1, k).
    """
    return (
        np.zeros((n + 1, k, n + 1), dtype=np.int16),
        np.zeros((n + 1, k), dtype=np.int64),
        np.zeros(n + 1, dtype=bool),
    )


def _placements(k: int, n: int, n_free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rechosen chips and energies of the first k users by free count and free rank.

    Chip entry [f, :, r] holds the chips for the r-th estimated-free
    subcarrier of a slot with f free subcarriers, and energy row f their
    squared norms.  The family has the largest supported order n' <= f;
    ranks from n' on are zero, so the excess free subcarriers idle, and
    column n is zero for every f, for the busy subcarriers to index.  Row
    f is all zero when that family has fewer than k rows.  Rows are
    filled the first time a free count in n_free needs them; the rows
    never filled stay untouched zero pages, so a large N costs only the
    free counts that occur.
    """
    table, energy, filled = _placement_table(k, n)
    missing = n_free[~filled[n_free]]
    for f in set(missing.tolist()):
        n_active = largest_supported_order(f)
        if n_active >= k:
            chips = rows(n_active, k)
            table[f, :, :n_active] = chips
            energy[f] = np.square(chips).sum(axis=1)
        filled[f] = True
    return table, energy


def signature_matrix(est_busy, k: int, code_policy: str):
    """Chips and energies of the first k users for a batch of busy masks.

    est_busy has shape (B, N).  Returns chips (B, k, N) int16, zero on
    every deactivated subcarrier, and energies (B, k) int64, the sums of
    the squared chips.  A slot that cannot carry k users gets all-zero
    chips and energies.

    rechoose policy: a fresh orthogonal family of the largest supported
    order n' <= n_free is laid out over the first n' free subcarriers; the
    trailing excess free subcarriers are deactivated.  Chips are gathered
    from the placement table by free count and then by free rank, with
    every busy subcarrier at the table's zero column; the index arrays
    broadcast, so no (B, k, N) index is formed.  Energies are looked up
    by free count.  fixed policy: the rows of the fixed length-N family
    keep their positions and the chips on estimated-busy subcarriers are
    zeroed (loses row orthogonality).
    """
    busy = np.asarray(est_busy, dtype=bool)
    if busy.ndim != 2:
        raise ValueError(f"est_busy must have shape (B, N), got {busy.shape}")
    n = busy.shape[1]
    free = ~busy
    if code_policy == "rechoose":
        n_free = np.count_nonzero(free, axis=1)
        column = np.cumsum(free, axis=1)  # free rank + 1 on a free subcarrier
        column -= 1
        column[busy] = n
        table, energy = _placements(k, n, n_free)
        chips = table[n_free[:, np.newaxis, np.newaxis], np.arange(k)[:, np.newaxis],
                      column[:, np.newaxis]]
        return chips, energy[n_free]
    if code_policy == "fixed":
        family = rows(n, k)
        chips = family.astype(np.int16) * free[:, np.newaxis, :]
        # exact integer sums of the squares a slot keeps, one per user
        return chips, free @ np.square(family).T
    raise ValueError(f"unknown code policy {code_policy!r}")


@dataclass(frozen=True)
class SlotBatch:
    """Ground truth and the first user's channel in B slots.

    misdetected marks subcarriers that are occupied but estimated free;
    chips carry zeros exactly where a chip was deactivated (estimated
    busy, plus any free subcarriers dropped to reach a supported code
    order).  A slot with zero energies cannot carry all users.  fade and
    mai_z are all the fading that the first user's decision depends on.
    """

    occupancy: np.ndarray  # (B, N) bool, true primary occupancy
    est_busy: np.ndarray  # (B, N) bool, OR fusion of the users' decisions
    misdetected: np.ndarray  # (B, N) bool, occupancy & ~est_busy
    chips: np.ndarray  # (B, K, N) int16, see signature_matrix
    energies: np.ndarray  # (B, K) int64, sum of squared chips per user
    fade: np.ndarray  # (B, N) float, |beta_1n|^2 ~ Exp(1)
    mai_z: np.ndarray  # (B, K-1) float, standard normals scaling m_k

    @property
    def feasible(self) -> np.ndarray:
        return self.energies[:, 0] > 0


def build_slots(
    params: SystemParams,
    model: OccupancyModel,
    u: np.ndarray,
    fade: np.ndarray,
    mai_z: np.ndarray,
) -> SlotBatch:
    """The slots of one batch's numbers: sensing outcomes and codes.

    u (B, N) holds one uniform per subcarrier, fade (B, N) one Exp(1)
    per subcarrier and mai_z (B, K-1) one standard normal per interferer.
    u picks the subcarrier's cell of the OR-fused sensing model:
    misdetected below p_mis, estimated busy on [p_mis, p_mis + p_zero),
    free above.  It is occupied below pr_h1, so the busy cell splits into
    pr_h1 * qd occupied and (1 - pr_h1) * qfa idle mass.
    """
    misdetected = u < model.p_mis
    est_busy = ~misdetected & (u < model.p_mis + model.p_zero)
    chips, energies = signature_matrix(est_busy, params.n_users, params.code_policy)
    return SlotBatch(
        occupancy=u < model.pr_h1,
        est_busy=est_busy,
        misdetected=misdetected,
        chips=chips,
        energies=energies,
        fade=fade,
        mai_z=mai_z,
    )


@dataclass(frozen=True)
class Projection:
    """Per-slot projections of everything the first user's decision uses.

    signal is the desired-signal gain S, which equals ||w||^2 and so also
    scales the noise; mai holds m_k for k >= 2; w2_lambda is the squared
    norm of w on the misdetected subcarriers.  var_n and var_gi are the
    variances of R_n and R_GI given the slot.
    """

    signal: np.ndarray  # (B,)
    mai: np.ndarray  # (B, K-1)
    w2_lambda: np.ndarray  # (B,)
    var_n: np.ndarray  # (B,) sigma_n^2/2 S
    var_gi: np.ndarray  # (B,) sigma_s^2/2 ||w_Lambda||^2


# Slots whose chips or bits are turned into floats at a time, so a large
# block never holds a float copy of all of them.
_FLOAT_SLOTS = 32


def _slot_chunks(n_slots: int):
    """Consecutive slices of _FLOAT_SLOTS slots covering n_slots slots."""
    return (slice(start, start + _FLOAT_SLOTS) for start in range(0, n_slots, _FLOAT_SLOTS))


def project(batch: SlotBatch, params: SystemParams) -> Projection:
    """S, m_k, ||w_Lambda||^2, var_n and var_gi of every slot (all zero where infeasible).

    The chips square exactly in float64: the first user's for w, the
    interferers' _FLOAT_SLOTS slots at a time for their variances.
    """
    # unit energy in place of zero keeps an infeasible slot's sums at zero
    power = 1.0 / np.maximum(batch.energies, 1)  # P_k per user
    w2 = power[:, :1] * np.square(batch.chips[:, 0], dtype=np.float64) * batch.fade  # |w_n|^2
    mai_var = np.empty(batch.mai_z.shape)
    for rows in _slot_chunks(len(w2)):
        chips2 = np.square(batch.chips[rows, 1:], dtype=np.float64)
        mai_var[rows] = np.einsum("bkn,bn->bk", chips2, w2[rows])
        del chips2  # freed before the next chunk's squares are made
    mai_var *= 0.5 * power[:, 1:]
    signal = w2.sum(axis=1)
    w2_lambda = np.sum(w2, axis=1, where=batch.misdetected)
    return Projection(
        signal=signal,
        mai=np.sqrt(mai_var) * batch.mai_z,
        w2_lambda=w2_lambda,
        var_n=0.5 * params.noise_psd * signal,
        var_gi=0.5 * params.interference_power * w2_lambda,
    )


def receive(proj: Projection, bits: np.ndarray, z: np.ndarray) -> np.ndarray:
    """First user's decision variables over a block of bit intervals per slot.

    bits has shape (B, I, K) with entries +-1 (any numeric dtype; int8
    keeps a block small) and z shape (B, I) holds one standard normal per
    interval, which scales R_n + R_GI; the slot's projections are held
    for the whole block (slot coherence).  Returns the (B, I) decision
    variables b_1 S + sum_k b_k m_k + sigma z, formed _FLOAT_SLOTS slots at
    a time: the bits turn float, all K users in one contiguous pass, the
    product reads the interferers' columns, and the signal and noise
    terms are added to the chunk's rows, in that order.
    """
    bits = np.asarray(bits)
    k = proj.mai.shape[1] + 1
    if bits.ndim != 3 or bits.shape[2] != k:
        raise ValueError(f"bits must have shape (B, I, {k})")
    sigma = np.sqrt(proj.var_n + proj.var_gi)
    decision = np.empty(bits.shape[:2])
    for rows in _slot_chunks(len(decision)):
        floats = bits[rows].astype(np.float64)
        decision[rows] = (floats[:, :, 1:] @ proj.mai[rows, :, np.newaxis])[:, :, 0]
        decision[rows] += floats[:, :, 0] * proj.signal[rows, np.newaxis]
        decision[rows] += sigma[rows, np.newaxis] * z[rows]
        del floats  # freed before the next chunk's floats are made
    if not np.all(np.isfinite(decision)):
        raise FloatingPointError("non-finite decision variable")
    return decision
