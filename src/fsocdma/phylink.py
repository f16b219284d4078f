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
the noise and the primary interference, so the receiver draws only its
projections.  With w_n = sqrt(P_1) c_1n conj(beta_1n),

    R = b_1 S + sum_{k>=2} b_k m_k
        + sqrt(sigma_n^2/2 ||w||^2) z_1 + sqrt(sigma_s^2/2 ||w_Lambda||^2) z_2

where S = ||w||^2, m_k = Re sum_n sqrt(P_k) beta_kn c_kn w_n, Lambda is
the misdetected set and z_1, z_2 are standard normals.  This has exactly
the distribution of drawing complex noise on every subcarrier and
interference on Lambda and projecting them onto w, at two normals per
bit interval instead of 2N plus the interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orthocodes import (
    ORDER_LIMIT,
    SUPPORTED_PRIMES,
    build,
    is_supported_order,
    largest_supported_order,
)

CODE_POLICIES = ("rechoose", "fixed")


@dataclass(frozen=True)
class SystemParams:
    """Static link parameters shared by the analysis and the simulator."""

    n_subcarriers: int
    n_users: int
    pr_h1: float
    energy_per_bit: float = 1.0
    noise_psd: float = 0.1
    interference_power: float = 0.1
    bit_duration: float = 10e-6
    slot_duration: float = 1e-3
    sensing_duration: float = 1e-4

    def __post_init__(self):
        if self.n_subcarriers < 1 or self.n_users < 1:
            raise ValueError("need at least one subcarrier and one user")
        if not (0.0 <= self.pr_h1 <= 1.0):
            raise ValueError("pr_h1 must lie in [0, 1]")
        if self.energy_per_bit <= 0 or self.noise_psd <= 0:
            raise ValueError("energy per bit and noise PSD must be positive")
        if self.interference_power < 0:
            raise ValueError("interference power must be nonnegative")
        if not (0.0 < self.sensing_duration < self.slot_duration):
            raise ValueError("need 0 < sensing_duration < slot_duration")
        if largest_supported_order(self.n_subcarriers) < self.n_users:
            raise ValueError(
                f"{self.n_users} users exceed the largest supported code order "
                f"<= {self.n_subcarriers} subcarriers"
            )

    @property
    def subcarrier_bandwidth(self) -> float:
        """Two-sided null-to-null bandwidth, 2 / bit_duration (documentation)."""
        return 2.0 / self.bit_duration

    @property
    def bits_per_slot(self) -> int:
        """Bits transmitted per user in the slot's transmission phase."""
        # epsilon guards the floor against float representation error
        return int((self.slot_duration - self.sensing_duration) / self.bit_duration + 1e-9)


def check_code_policy(code_policy: str, n_subcarriers: int) -> None:
    """Raise a ValueError naming the configuration key if the policy cannot code N.

    The fixed policy spreads over one length-N family, so N itself must be
    a supported order.
    """
    if code_policy not in CODE_POLICIES:
        raise ValueError(
            f"codes.policy={code_policy!r} is not one of {', '.join(CODE_POLICIES)}"
        )
    if code_policy == "fixed" and not is_supported_order(n_subcarriers):
        why = (
            f"exceeds the order limit {ORDER_LIMIT}"
            if n_subcarriers > ORDER_LIMIT
            else f"has a prime factor outside {SUPPORTED_PRIMES}"
        )
        raise ValueError(
            f"params.n_subcarriers={n_subcarriers} {why}, so codes.policy=fixed "
            "has no code family for it"
        )


@dataclass(frozen=True)
class SensingProbs:
    """Per-user local sensing probabilities fed to the Bernoulli shortcut."""

    pd: float
    pfa: float

    def __post_init__(self):
        for name, v in (("pd", self.pd), ("pfa", self.pfa)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")


@lru_cache(maxsize=None)
def _placement(n_free: int, k: int, n: int) -> np.ndarray:
    """Rechosen chips of the first k users indexed by free rank.

    The family has the largest supported order n' <= n_free.  Column r
    holds the chips for the r-th estimated-free subcarrier; columns from
    n' on are zero, so the excess free subcarriers idle.  All zero when
    the family has fewer than k rows.
    """
    n_active = largest_supported_order(n_free)
    table = np.zeros((k, n), dtype=np.int64)
    if n_active >= k:
        table[:, :n_active] = build(n_active).entries[:k]
    table.setflags(write=False)
    return table


def signature_matrix(est_busy, k: int, code_policy: str = "rechoose"):
    """Chips and energies of the first k users for a batch of busy masks.

    est_busy has shape (B, N).  Returns chips (B, k, N) int64, zero on
    every deactivated subcarrier, and energies (B, k) int64, the sums of
    the squared chips.  A slot that cannot carry k users gets all-zero
    chips and energies.

    rechoose policy: a fresh orthogonal family of the largest supported
    order n' <= n_free is laid out over the first n' free subcarriers; the
    trailing excess free subcarriers are deactivated.  fixed policy: the
    rows of the fixed length-N family keep their positions and the chips
    on estimated-busy subcarriers are zeroed (loses row orthogonality).
    """
    busy = np.asarray(est_busy, dtype=bool)
    if busy.ndim != 2:
        raise ValueError(f"est_busy must have shape (B, N), got {busy.shape}")
    n = busy.shape[1]
    free = ~busy
    if code_policy == "rechoose":
        n_free = np.count_nonzero(free, axis=1)
        tables = np.stack([_placement(int(f), k, n) for f in n_free])
        rank = np.maximum(np.cumsum(free, axis=1) - 1, 0)
        chips = np.take_along_axis(tables, rank[:, np.newaxis, :], axis=2)
        chips *= free[:, np.newaxis, :]
    elif code_policy == "fixed":
        chips = build(n).entries[:k] * free[:, np.newaxis, :]
    else:
        raise ValueError(f"unknown code policy {code_policy!r}")
    # a row's squares over any subset stay below its Gram diagonal, which
    # build bounds to int64, so the sums cannot overflow
    energies = np.einsum("bkn,bkn->bk", chips, chips)
    return chips, energies


@dataclass(frozen=True)
class SlotBatch:
    """Ground truth and channel of B slots.

    misdetected marks subcarriers that are occupied but estimated free;
    chips carry zeros exactly where a chip was deactivated (estimated
    busy, plus any free subcarriers dropped to reach a supported code
    order).  A slot with zero energies cannot carry all users.
    """

    occupancy: np.ndarray  # (B, N) bool, true primary occupancy
    est_busy: np.ndarray  # (B, N) bool, OR fusion of the users' decisions
    misdetected: np.ndarray  # (B, N) bool, occupancy & ~est_busy
    chips: np.ndarray  # (B, K, N) int64
    energies: np.ndarray  # (B, K) int64, sum of squared chips per user
    gains: np.ndarray  # (B, K, N) complex, unit-variance channel gains

    @property
    def feasible(self) -> np.ndarray:
        return self.energies[:, 0] > 0


def draw_slots(
    params: SystemParams,
    probs: SensingProbs,
    rng: np.random.Generator,
    n_slots: int,
    code_policy: str = "rechoose",
) -> SlotBatch:
    """Draw n_slots slots: occupancy, sensing decisions, codes and channel gains.

    Draw order is fixed (occupancy, decisions, gains) so a seeded stream
    reproduces the batch bit for bit.  Sensing uses the Bernoulli
    shortcut: each user reports busy with probability pd on occupied
    subcarriers and pfa on idle ones.
    """
    n = params.n_subcarriers
    k = params.n_users
    shape = (n_slots, k, n)
    occupancy = rng.random((n_slots, n)) < params.pr_h1
    p_busy = np.where(occupancy, probs.pd, probs.pfa)
    est_busy = np.any(rng.random(shape) < p_busy[:, np.newaxis, :], axis=1)
    chips, energies = signature_matrix(est_busy, k, code_policy)
    gains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return SlotBatch(
        occupancy=occupancy,
        est_busy=est_busy,
        misdetected=occupancy & ~est_busy,
        chips=chips,
        energies=energies,
        gains=gains,
    )


@dataclass(frozen=True)
class Projection:
    """Per-slot projections of everything the first user's decision uses.

    signal is the desired-signal gain S, which equals ||w||^2 and so also
    scales the noise; mai holds m_k for k >= 2; w2_lambda is the squared
    norm of w on the misdetected subcarriers.
    """

    signal: np.ndarray  # (B,)
    mai: np.ndarray  # (B, K-1)
    w2_lambda: np.ndarray  # (B,)


def project(batch: SlotBatch, energy_per_bit: float) -> Projection:
    """S, m_k and ||w_Lambda||^2 of every slot (all zero where infeasible)."""
    chips = batch.chips.astype(np.float64)
    # unit energy in place of zero keeps an infeasible slot's sums at zero
    amp = np.sqrt(energy_per_bit / np.maximum(batch.energies, 1))  # sqrt(P_n) per user
    w = np.conj(batch.gains[:, 0]) * (chips[:, 0] * amp[:, :1])  # (B, N)
    w2 = w.real**2 + w.imag**2
    tx = batch.gains[:, 1:] * (chips[:, 1:] * amp[:, 1:, np.newaxis])
    return Projection(
        signal=w2.sum(axis=1),
        mai=np.einsum("bkn,bn->bk", tx, w).real,
        w2_lambda=np.sum(w2, axis=1, where=batch.misdetected),
    )


def receive(proj: Projection, params: SystemParams, bits: np.ndarray, z: np.ndarray) -> dict:
    """First user's decisions over a block of bit intervals per slot.

    bits has shape (B, I, K) with entries +-1 and z shape (B, I, 2) holds
    standard normals for the noise and the primary interference; the
    slot's projections are held for the whole block (slot coherence).
    Returns a dict of (B, I) arrays: the decision variables, the four
    components and the decided bits.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.ndim != 3 or bits.shape[2] != params.n_users:
        raise ValueError(f"bits must have shape (B, I, {params.n_users})")
    r_signal = bits[:, :, 0] * proj.signal[:, np.newaxis]
    r_mai = (bits[:, :, 1:] @ proj.mai[:, :, np.newaxis])[:, :, 0]
    r_noise = np.sqrt(0.5 * params.noise_psd * proj.signal)[:, np.newaxis] * z[:, :, 0]
    r_gi = np.sqrt(0.5 * params.interference_power * proj.w2_lambda)[:, np.newaxis] * z[:, :, 1]
    decision = r_signal + r_mai + r_gi + r_noise
    if not np.all(np.isfinite(decision)):
        raise FloatingPointError("non-finite decision variable")
    return {
        "decision": decision,
        "r_signal": r_signal,
        "r_mai": r_mai,
        "r_gi": r_gi,
        "r_noise": r_noise,
        "decided": np.where(decision >= 0.0, 1, -1),
    }
