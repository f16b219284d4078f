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

average_pe evaluates this as one table per sweep point.  Under the
rechoose policy every cell with n_free = N - m free subcarriers uses the
family of order n_active = largest_supported_order(n_free), and only the
number j of misdetections that land on its active chips, and which chips
they hit, moves the variance.  So:

- q[j], j = 0..n_active, is the error probability with j misdetected
  active chips averaged over their placement, one vector per order and
  point: a closed form in j for constant-magnitude (Walsh) chips, and one
  Q evaluation over the exact subset-sum distribution of the squared
  chips, reduced per j, for multi-level ones;
- the cached hypergeometric table H[l, j] = P(j | l) of (n_free,
  n_active) turns q into the cells of row m, H @ q;
- the trinomial weights of (m, l) sum the cells.

The fixed policy keeps its length-N family.  With unit-magnitude chips
every cell is one closed form in (n_free, l).  A multi-level family
averages the chip-level error probability over every zeroed and
misdetected placement of the cell; a cell with more than 100k placements
takes the mean over 10k seeded random placements instead, an estimate
rather than a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .orthocodes import INT64_MAX, build, largest_supported_order
from .phylink import SystemParams, signature_matrix
from .sensing import OccupancyModel

_SQRT2 = math.sqrt(2.0)
# a fixed-policy multi-level cell with more placements than this is sampled
_ENUMERATION_LIMIT = 100_000
_SAMPLED_PLACEMENTS = 10_000


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
    """Standard normal tail probability Q(x) = P(Z > x), element by element.

    0.5 * erfc(x / sqrt(2)) with the C library's erfc (math.erfc).  A float
    gives a float; other input gives float64 values of its shape (a numpy
    scalar for 0-d input).
    """
    if isinstance(x, float):
        return 0.5 * math.erfc(x / _SQRT2)
    z = np.asarray(x, dtype=np.float64) / _SQRT2
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size)
    return 0.5 * erfc.reshape(z.shape)


def _chip_pe(chips, misdetected, eb, sn2, ss2) -> float:
    """Conditional error probability of one slot's concrete chips.

    chips is the (K, N) float64 matrix of the first K users, zero on every
    deactivated subcarrier, and misdetected the boolean (N,) mask of the
    subcarriers that see primary interference.  A first user without
    energy cannot be decoded: the erasure value 1/2.
    """
    c1 = chips[0]
    e1 = float(np.sum(c1**2))
    if e1 <= 0:
        return 0.5
    var_s = eb * eb * float(np.sum(c1**4)) / (e1 * e1)
    var_mai = 0.5 * eb * eb * float(np.sum((c1 * chips[1:]) ** 2)) / (e1 * e1)
    var_gi = 0.5 * eb * (float(np.sum(c1[misdetected] ** 2)) / e1) * ss2
    var_n = 0.5 * eb * sn2
    return float(q_function(eb / math.sqrt(var_s + var_mai + var_gi + var_n)))


@lru_cache(maxsize=None)
def _subset_sum_distributions(n_active: int) -> tuple:
    """Exact subset-sum distributions of the order-n_active family's squared chips.

    Returns flat (sums, probs, starts): sums[starts[j]:starts[j+1]] are the
    values of sum_{i in S} c1_i^2 over uniformly random j-subsets S,
    ascending, and probs the matching probabilities, so that one Q
    evaluation covers every j.  A 0/1 knapsack over a (subset size, sum)
    count array, in int64 while no count can exceed it (every count is at
    most comb(n, n//2)) and in Python integers beyond; each probability is
    one correctly rounded int / int division.
    """
    sq = [int(v) ** 2 for v in build(n_active).entries[0]]
    top = sum(sq)
    exact = np.int64 if comb(n_active, n_active // 2) <= INT64_MAX else object
    counts = np.zeros((n_active + 1, top + 1), dtype=exact)
    counts[0, 0] = 1
    reach = 0  # largest sum of the chips added so far
    for i, value in enumerate(sq):
        # the operands overlap, so numpy reads every row as it was before this chip
        counts[1 : i + 2, value : reach + value + 1] += counts[: i + 1, : reach + 1]
        reach += value
    sums, probs, starts = [], [], []
    size = 0
    for j in range(n_active + 1):
        total = comb(n_active, j)
        attained = np.flatnonzero(counts[j])
        row = counts[j, attained]
        if total <= 2**53:
            # both operands are exact doubles, so IEEE division rounds as int / int
            p = row.astype(np.float64) / total
        else:
            p = np.fromiter((c / total for c in row.tolist()), np.float64, row.size)
        starts.append(size)
        size += attained.size
        sums.append(attained)
        probs.append(p)
    return np.concatenate(sums).astype(np.float64), np.concatenate(probs), np.array(starts)


@lru_cache(maxsize=None)
def _distinct_sums(n_active: int) -> tuple:
    """(values, inverse): the distinct subset sums of the order, values[inverse] == sums."""
    return np.unique(_subset_sum_distributions(n_active)[0], return_inverse=True)


@lru_cache(maxsize=256)
def _hypergeom_matrix(n_free: int, n_active: int) -> np.ndarray:
    """H[l, j] = P(j of l misdetected free subcarriers land on the n_active active ones).

    The rechoose layout keeps n_active of the n_free free subcarriers, so
    j is hypergeometric; each entry is one exact integer ratio.  A sweep
    point at N subcarriers uses N + 1 tables, (N + 1)^3 / 3 floats in all.
    """
    table = np.zeros((n_free + 1, n_active + 1))
    idle = n_free - n_active
    for l in range(n_free + 1):
        denom = comb(n_free, l)
        for j in range(max(0, l - idle), min(l, n_active) + 1):
            table[l, j] = comb(n_active, j) * comb(idle, l - j) / denom
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _constant_magnitude(order: int) -> bool:
    """Whether the order's family has chips of one magnitude (the Walsh orders)."""
    sq = build(order).entries[0] ** 2
    return bool(np.all(sq == sq[0]))


def _unit_chip_pe(order, hits, k_users, eb, sn2, ss2):
    """Conditional error probability for chips of one magnitude; arrays broadcast.

    order chips carry the signal and hits of them see primary
    interference; the normalized terms reduce to counts.
    """
    var_s = eb * eb / order
    var_mai = 0.5 * eb * eb * (k_users - 1) / order
    var_gi = 0.5 * eb * hits * ss2 / order
    var_n = 0.5 * eb * sn2
    return q_function(eb / np.sqrt(var_s + var_mai + var_gi + var_n))


def _multilevel_pe(n_active, k_users, eb, sn2, ss2, gi_sums):
    """Conditional error probability of the rechosen multi-level family.

    gi_sums holds sums of squared first-row chips on misdetected active
    subcarriers, one value per placement.
    """
    family = build(n_active)
    c1 = family.entries[0].astype(np.float64)
    energy = float(family.gram_diag[0])
    var_s = eb * eb * float(np.sum(c1**4)) / (energy * energy)
    cross = float(np.sum((c1 * family.entries[1:k_users]) ** 2)) if k_users > 1 else 0.0
    var_mai = 0.5 * eb * eb * cross / (energy * energy)
    var_n = 0.5 * eb * sn2
    gi_scale = 0.5 * eb * ss2 / energy
    return q_function(eb / np.sqrt(var_s + var_mai + var_n + gi_scale * gi_sums))


def _rechoose_q(n_active, k_users, eb, sn2, ss2) -> np.ndarray:
    """q[j], j = 0..n_active: error probability with j misdetected active chips.

    Averaged over the uniform placement of the j hits: a closed form in j
    for constant-magnitude chips, the exact subset-sum distribution of the
    squared chips otherwise, with Q evaluated once per distinct sum.
    """
    hits = np.arange(n_active + 1)
    if _constant_magnitude(n_active):
        return _unit_chip_pe(n_active, hits, k_users, eb, sn2, ss2)
    _, probs, starts = _subset_sum_distributions(n_active)
    values, inverse = _distinct_sums(n_active)
    pe = _multilevel_pe(n_active, k_users, eb, sn2, ss2, values)[inverse]
    return np.add.reduceat(probs * pe, starts)


def _pe_of_counts_fixed(n, m, l, k_users, eb, sn2, ss2):
    """Fixed length-N multi-level family with m zeroed and l misdetected chips.

    The conditional variance depends on which chips are zeroed and which
    are misdetected, so the cell averages _chip_pe over every placement of
    both sets, or over _SAMPLED_PLACEMENTS seeded random placements when
    there are more than _ENUMERATION_LIMIT.
    """
    entries = build(n).entries[:k_users].astype(np.float64)
    space = comb(n, m) * comb(n - m, l)
    if space <= _ENUMERATION_LIMIT:
        count = space
        placements = (
            (busy, lam)
            for busy in itertools.combinations(range(n), m)
            for lam in itertools.combinations([i for i in range(n) if i not in busy], l)
        )
    else:
        count = _SAMPLED_PLACEMENTS
        rng = np.random.default_rng(np.random.SeedSequence((0, n, m, l, k_users, 1)))

        def draw():
            busy = rng.choice(n, size=m, replace=False)
            rest = np.setdiff1d(np.arange(n), busy, assume_unique=False)
            lam = rng.choice(rest, size=l, replace=False) if l else np.empty(0, dtype=int)
            return busy, lam

        placements = (draw() for _ in range(count))
    total = 0.0
    for busy, lam in placements:
        free = np.ones(n, dtype=bool)
        free[list(busy)] = False
        misdetected = np.zeros(n, dtype=bool)
        misdetected[list(lam)] = True
        total += _chip_pe(entries * free, misdetected, eb, sn2, ss2)
    return total / count


@lru_cache(maxsize=None)
def _binomial_table(n: int) -> np.ndarray:
    """B[m, l] = comb(n - m, l) as float64; zero where m + l > n."""
    table = np.array(
        [[comb(n - m, l) for l in range(n + 1)] for m in range(n + 1)], dtype=np.float64
    )
    table.setflags(write=False)
    return table


def _trinomial_weights(n: int, p0: float, pm: float, pf: float) -> np.ndarray:
    """W[m, l] = P(m estimated busy, l misdetected, the rest free); zero where m + l > n."""
    lead = np.array([comb(n, m) * p0**m for m in range(n + 1)])
    pm_l = np.array([pm**l for l in range(n + 1)])
    pf_r = np.array([pf**r for r in range(n + 1)])
    m, l = np.indices((n + 1, n + 1))
    # off the triangle the binomial is zero, so the clipped index only avoids wrapping
    return lead[:, None] * _binomial_table(n) * pm_l * pf_r[np.maximum(n - m - l, 0)]


def _cell_table(n, k_users, eb, sn2, ss2, code_policy, needed) -> np.ndarray:
    """Error probability of every (m, l) cell; zero where m + l > n.

    needed, a boolean (n+1, n+1) mask inside that triangle, limits the
    cells that the fixed policy's multi-level family enumerates one by
    one; every other branch fills the whole triangle at once.
    """
    terms = (k_users, eb, sn2, ss2)
    cells = np.zeros((n + 1, n + 1))
    if code_policy == "rechoose":
        qs: dict[int, np.ndarray] = {}
        for m in range(n + 1):
            n_free = n - m
            n_active = largest_supported_order(n_free)
            if n_active < k_users:
                cells[m, : n_free + 1] = 0.5
                continue
            if n_active not in qs:
                qs[n_active] = _rechoose_q(n_active, *terms)
            cells[m, : n_free + 1] = _hypergeom_matrix(n_free, n_active) @ qs[n_active]
        return cells
    if code_policy != "fixed":
        raise ValueError(f"unknown code policy {code_policy!r}")
    m, l = np.indices(cells.shape)
    n_free = n - m
    if _constant_magnitude(n):
        pe = _unit_chip_pe(np.maximum(n_free, 1), l, *terms)
        return np.where(l > n_free, 0.0, np.where(n_free == 0, 0.5, pe))
    for mi, li in zip(*np.nonzero(needed)):
        cells[mi, li] = _pe_of_counts_fixed(n, int(mi), int(li), *terms)
    return cells


def average_pe(
    params: SystemParams,
    model: OccupancyModel,
    code_policy: str = "rechoose",
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
    weights = _trinomial_weights(n, p0, pm, pf)
    cells = _cell_table(
        n,
        params.n_users,
        params.energy_per_bit,
        params.noise_psd,
        params.interference_power,
        code_policy,
        needed=weights > 0.0,
    )
    return float(np.sum(weights * cells))


def average_pe_enumerated(
    params: SystemParams,
    model: OccupancyModel,
    code_policy: str = "rechoose",
) -> float:
    """Exact expectation by enumerating every per-subcarrier state (3^N).

    Each subcarrier is estimated-busy, misdetected, or properly free; the
    chip-level error probability of every configuration is evaluated from
    the signatures that signature_matrix lays out for it.  Small N only;
    used as the built-in cross-check for average_pe.
    """
    n = params.n_subcarriers
    terms = (params.energy_per_bit, params.noise_psd, params.interference_power)
    probs = (model.p_free, model.p_zero, model.p_mis)
    total = 0.0
    for states in itertools.product((0, 1, 2), repeat=n):
        w = 1.0
        for s in states:
            w *= probs[s]
        if w == 0.0:
            continue
        state = np.array(states)
        chips, _ = signature_matrix((state == 1)[np.newaxis], params.n_users, code_policy)
        total += w * _chip_pe(chips[0].astype(np.float64), state == 2, *terms)
    return total
