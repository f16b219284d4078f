"""Closed-form bit error rate of the first user's receiver.

The decision variable is approximated as Gaussian; conditioned on m
estimated-busy and l misdetected subcarriers its variance splits into
four terms computed from the modified chips:

    var_s   = eb^2 * sum(c1^4) / (sum(c1^2))^2
    var_mai = eb^2/2 * sum_{k>=2} sum_n (c1_n ck_n)^2 / (sum(c1^2))^2
    var_gi  = eb/2 * (sum_{n in Lambda} c1_n^2 / sum(c1^2)) * sigma_s^2
    var_n   = eb * sigma_n^2 / 2

and the conditional error probability is Q(eb / sqrt(sum of terms)).
Averaging over the trinomial (estimated-busy, misdetected, free) per
subcarrier gives the slot-average error probability.  Cells that cannot
carry all users contribute the erasure value 1/2, matching the
simulator's convention.

The conditional variance depends on which chips are hit whenever chip
magnitudes are non-constant, so the (m, l) cell value averages over
placements: exactly, via the cached subset-sum distribution of the
squared chips, or by seeded subset sampling for cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .orthocodes import ModifiedSignature, build, largest_supported_order
from .phylink import SystemParams, signature_matrix
from .sensing import OccupancyModel

PLACEMENT_MODES = ("exact", "sample")


class DegenerateSlotError(ValueError):
    """The decoded user's signature has zero energy (nothing transmitted)."""


@dataclass(frozen=True)
class VarianceBreakdown:
    """The four variance terms of the Gaussian decision-variable model."""

    var_s: float
    var_mai: float
    var_gi: float
    var_n: float

    @property
    def total(self) -> float:
        return self.var_s + self.var_mai + self.var_gi + self.var_n


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

    def __post_init__(self):
        if (self.ber_simulated is None) != (self.ci_halfwidth is None):
            raise ValueError("ci_halfwidth must accompany ber_simulated")


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x)."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def variance_terms(
    sig1: ModifiedSignature,
    sigs: Sequence[ModifiedSignature],
    lambda_set,
    energy_per_bit: float,
    noise_psd: float,
    interference_power: float,
) -> VarianceBreakdown:
    """Evaluate the four variance terms from concrete modified signatures.

    sigs is the full K-tuple with sigs[0] == sig1; lambda_set holds the
    misdetected subcarrier indices.  A misdetected subcarrier whose chip is
    zero (deactivated) contributes nothing, as in the receiver.
    """
    eb = energy_per_bit
    c1 = sig1.chips.astype(np.float64)
    energy = float(sig1.energy)
    if energy <= 0:
        raise DegenerateSlotError("first user's signature has zero energy")
    var_s = eb * eb * float(np.sum(c1**4)) / (energy * energy)
    cross = 0.0
    for sig in sigs[1:]:
        ck = sig.chips.astype(np.float64)
        cross += float(np.sum((c1 * ck) ** 2))
    var_mai = 0.5 * eb * eb * cross / (energy * energy)
    lam = np.asarray(list(lambda_set), dtype=np.intp)
    gi_energy = float(np.sum(c1[lam] ** 2)) if lam.size else 0.0
    var_gi = 0.5 * eb * (gi_energy / energy) * interference_power
    var_n = 0.5 * eb * noise_psd
    return VarianceBreakdown(var_s=var_s, var_mai=var_mai, var_gi=var_gi, var_n=var_n)


def conditional_pe(v: VarianceBreakdown, energy_per_bit: float) -> float:
    """Conditional error probability Q(eb / sqrt(total variance)).

    The all-zero-variance limit is the noiseless case: returns 0.
    """
    total = v.total
    if total <= 0.0:
        return 0.0
    return float(q_function(energy_per_bit / math.sqrt(total)))


@lru_cache(maxsize=None)
def _subset_sum_distributions(n_active: int) -> tuple:
    """Exact subset-sum distribution of the squared first-row chips.

    For the order-n_active family, returns per subset size j a pair
    (sums, probabilities): the possible values of sum_{i in S} c1_i^2 over
    uniformly random j-subsets S and their exact probabilities.  Computed
    by dynamic programming in exact integer arithmetic, then normalized.
    """
    family = build(n_active)
    sq = [int(v) ** 2 for v in family.entries[0]]
    # counts[j][s] = number of j-subsets summing to s
    counts: list[dict[int, int]] = [dict() for _ in range(n_active + 1)]
    counts[0][0] = 1
    for value in sq:
        for j in range(min(len(counts) - 2, n_active), -1, -1):
            if not counts[j]:
                continue
            tgt = counts[j + 1]
            for s, c in counts[j].items():
                tgt[s + value] = tgt.get(s + value, 0) + c
    out = []
    for j in range(n_active + 1):
        total = comb(n_active, j)
        sums = np.array(sorted(counts[j]), dtype=np.float64)
        probs = np.array([counts[j][int(s)] / total for s in sums], dtype=np.float64)
        out.append((sums, probs))
    return tuple(out)


def _pe_binary_counts(n_active, j_misdetected, k_users, eb, sn2, ss2):
    """Count-only conditional error probability for unit-magnitude chips."""
    var_s = eb * eb / n_active
    var_mai = 0.5 * eb * eb * (k_users - 1) / n_active
    var_gi = 0.5 * eb * j_misdetected * ss2 / n_active
    var_n = 0.5 * eb * sn2
    return float(q_function(eb / math.sqrt(var_s + var_mai + var_gi + var_n)))


def _hypergeom_weights(n_free: int, l: int, n_active: int):
    """P(j of the l misdetected free subcarriers land among the n_active kept)."""
    denom = comb(n_free, l)
    lo = max(0, l - (n_free - n_active))
    hi = min(l, n_active)
    for j in range(lo, hi + 1):
        yield j, comb(n_active, j) * comb(n_free - n_active, l - j) / denom


def pe_of_counts(
    n_subcarriers: int,
    m: int,
    l: int,
    k_users: int,
    energy_per_bit: float,
    noise_psd: float,
    interference_power: float,
    code_policy: str = "rechoose",
    placement_mode: str = "exact",
    sample_count: int = 10_000,
    seed: int = 0,
) -> float:
    """Error probability conditioned on the counts (m estimated busy, l misdetected).

    Chip placement within the counts is uniformly random; for non-constant
    chip magnitudes the conditional variance is averaged over placements
    (exact subset-sum distribution by default, seeded sampling on request).
    Infeasible cells (all busy, or fewer orthogonal rows than users) return
    the erasure value 1/2.
    """
    if m < 0 or l < 0 or m + l > n_subcarriers:
        raise ValueError("need 0 <= m, 0 <= l, m + l <= n_subcarriers")
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if placement_mode not in PLACEMENT_MODES:
        raise ValueError(f"unknown placement mode {placement_mode!r}")
    eb = energy_per_bit
    sn2 = noise_psd
    ss2 = interference_power
    n_free = n_subcarriers - m
    if n_free == 0:
        return 0.5

    if code_policy == "rechoose":
        n_active = largest_supported_order(n_free)
        if n_active < k_users:
            return 0.5
        family = build(n_active)
        sq1 = family.entries[0].astype(np.float64) ** 2
        if np.all(sq1 == sq1[0]):
            # constant chip magnitude: only the count j matters and the
            # normalized terms reduce to the unit-magnitude forms
            pe = 0.0
            for j, w in _hypergeom_weights(n_free, l, n_active):
                pe += w * _pe_binary_counts(n_active, j, k_users, eb, sn2, ss2)
            return pe
        energy = float(family.gram_diag[0])
        var_s = eb * eb * float(np.sum(sq1**2)) / (energy * energy)
        cross = float(
            np.sum((family.entries[0].astype(np.float64) * family.entries[1:k_users].astype(np.float64)) ** 2)
        ) if k_users > 1 else 0.0
        var_mai = 0.5 * eb * eb * cross / (energy * energy)
        var_n = 0.5 * eb * sn2
        gi_scale = 0.5 * eb * ss2 / energy

        pe = 0.0
        if placement_mode == "exact":
            dists = _subset_sum_distributions(n_active)
            for j, w in _hypergeom_weights(n_free, l, n_active):
                sums, probs = dists[j]
                args = eb / np.sqrt(var_s + var_mai + var_n + gi_scale * sums)
                pe += w * float(np.dot(probs, q_function(args)))
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, n_subcarriers, m, l, k_users))
            )
            for j, w in _hypergeom_weights(n_free, l, n_active):
                if j == 0:
                    gi_sums = np.zeros(1)
                else:
                    keys = rng.random((sample_count, n_active))
                    idx = np.argpartition(keys, j - 1, axis=1)[:, :j]
                    gi_sums = sq1[idx].sum(axis=1)
                args = eb / np.sqrt(var_s + var_mai + var_n + gi_scale * gi_sums)
                pe += w * float(np.mean(q_function(args)))
        return pe

    if code_policy == "fixed":
        return _pe_of_counts_fixed(
            n_subcarriers, m, l, k_users, eb, sn2, ss2, placement_mode, sample_count, seed
        )
    raise ValueError(f"unknown code policy {code_policy!r}")


def _pe_of_counts_fixed(n, m, l, k_users, eb, sn2, ss2, placement_mode, sample_count, seed):
    """Fixed length-N family with zeroed chips; placement-averaged.

    With constant chip magnitudes only counts matter (the zeroed rows stay
    equal-energy); otherwise both the zeroed set and the misdetected set
    are enumerated or sampled.
    """
    family = build(n)
    entries = family.entries.astype(np.float64)
    sq1 = entries[0] ** 2
    n_free = n - m
    if np.all(sq1 == sq1[0]):
        var_s = eb * eb / n_free
        var_mai = 0.5 * eb * eb * (k_users - 1) / n_free
        var_n = 0.5 * eb * sn2
        var_gi = 0.5 * eb * l * ss2 / n_free
        return float(q_function(eb / math.sqrt(var_s + var_mai + var_gi + var_n)))

    def cell(busy_idx, lam_idx):
        free = np.ones(n, dtype=bool)
        free[list(busy_idx)] = False
        c = entries * free
        e1 = float(np.sum(c[0] ** 2))
        if e1 <= 0:
            return 0.5
        var_s = eb * eb * float(np.sum(c[0] ** 4)) / (e1 * e1)
        cross = float(np.sum((c[0] * c[1:k_users]) ** 2)) if k_users > 1 else 0.0
        var_mai = 0.5 * eb * eb * cross / (e1 * e1)
        lam = np.asarray(lam_idx, dtype=np.intp)
        var_gi = 0.5 * eb * (float(np.sum(c[0][lam] ** 2)) / e1) * ss2 if lam.size else 0.0
        var_n = 0.5 * eb * sn2
        return float(q_function(eb / math.sqrt(var_s + var_mai + var_gi + var_n)))

    space = comb(n, m) * comb(n_free, l)
    if placement_mode == "exact" and space <= 100_000:
        total = 0.0
        for busy in itertools.combinations(range(n), m):
            rest = [i for i in range(n) if i not in busy]
            for lam in itertools.combinations(rest, l):
                total += cell(busy, lam)
        return total / space
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, m, l, k_users, 1)))
    total = 0.0
    for _ in range(sample_count):
        busy = rng.choice(n, size=m, replace=False)
        rest = np.setdiff1d(np.arange(n), busy, assume_unique=False)
        lam = rng.choice(rest, size=l, replace=False) if l else np.empty(0, dtype=int)
        total += cell(busy, lam)
    return total / sample_count


def average_pe(
    params: SystemParams,
    model: OccupancyModel,
    code_policy: str = "rechoose",
    placement_mode: str = "exact",
) -> float:
    """Slot-average error probability over the per-subcarrier trinomial.

    Sums the full (m, l) grid including m=0 and l=0 so the weights form a
    proper expectation (they sum to one exactly).
    """
    p0, pm, pf = model.p_zero, model.p_mis, model.p_free
    if p0 + pm > 1.0 + 1e-12:
        raise ValueError("p_zero + p_mis exceeds 1")
    pf = max(pf, 0.0)
    n = params.n_subcarriers
    total = 0.0
    for m in range(n + 1):
        w_m = comb(n, m) * p0**m
        if w_m == 0.0:
            continue
        for l in range(n - m + 1):
            w = w_m * comb(n - m, l) * pm**l * pf ** (n - m - l)
            if w == 0.0:
                continue
            total += w * pe_of_counts(
                n,
                m,
                l,
                params.n_users,
                params.energy_per_bit,
                params.noise_psd,
                params.interference_power,
                code_policy=code_policy,
                placement_mode=placement_mode,
            )
    return total


def average_pe_enumerated(
    params: SystemParams,
    model: OccupancyModel,
    code_policy: str = "rechoose",
) -> float:
    """Exact expectation by enumerating every per-subcarrier state (3^N).

    Each subcarrier is estimated-busy, misdetected, or properly free; the
    conditional error probability of every configuration is evaluated from
    the concrete signatures.  Small N only; used as the built-in
    cross-check for average_pe.
    """
    n = params.n_subcarriers
    k = params.n_users
    eb = params.energy_per_bit
    probs = (model.p_free, model.p_zero, model.p_mis)
    total = 0.0
    for states in itertools.product((0, 1, 2), repeat=n):
        w = 1.0
        for s in states:
            w *= probs[s]
        if w == 0.0:
            continue
        est_busy = np.array([s == 1 for s in states])
        lam = [i for i, s in enumerate(states) if s == 2]
        chips, energies = signature_matrix(est_busy[np.newaxis], k, code_policy)
        if energies[0, 0] == 0:
            total += w * 0.5
            continue
        sigs = tuple(
            ModifiedSignature(length=n, chips=c, free_mask=c != 0, energy=int(e))
            for c, e in zip(chips[0], energies[0])
        )
        v = variance_terms(sigs[0], sigs, lam, eb, params.noise_psd, params.interference_power)
        total += w * conditional_pe(v, eb)
    return total

