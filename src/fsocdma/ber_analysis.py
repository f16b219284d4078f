"""Closed-form bit error rate of the first user's receiver.

The decision variable is approximated as Gaussian; conditioned on the
modified chips its variance splits into four terms:

    var_s   = eb^2 * sum(c1^4) / (sum(c1^2))^2
    var_mai = eb^2/2 * sum_{k>=2} sum_n (c1_n ck_n)^2 / (sum(c1^2))^2
    var_gi  = eb/2 * (sum_{n in Lambda} c1_n^2 / sum(c1^2)) * sigma_s^2
    var_n   = eb * sigma_n^2 / 2

and the conditional error probability is Q(eb / sqrt(sum of terms)).
Each subcarrier is independently estimated busy (p_zero), misdetected
(p_mis) or free (p_free), and the slot-average error probability is the
expectation over that trinomial.  Slots that cannot carry all users
contribute the erasure value 1/2, matching the simulator's convention.

average_pe factors the trinomial.  The number m of estimated-busy
subcarriers has P(m) = Binom(m; N, p_zero), and given m each of the
other N - m subcarriers is misdetected independently with probability
r = p_mis / (p_mis + p_free).  Under the rechoose policy the first
a = largest_supported_order(N - m) of them carry the order-a family and
the rest idle, so the misdetected active chips are an i.i.d.
Bernoulli(r) subset of the a chips, whatever N - m is: thinning
Binom(l; N - m, r) misdetections onto a of the N - m subcarriers leaves
Binom(j; a, r).  Only the sum s of the squared first-row chips on that
subset moves the variance, through var_gi, so

    average_pe = 1/2 * sum_{m: a(m) < K} P(m)
                 + sum_a P_a * sum_s D_{a,r}(s) * Q(eb / sqrt(V_a + g_a * s))

where P_a is the mass of the m that share order a, V_a = var_s + var_mai
+ var_n and g_a * s = var_gi.  D_{a,r} is the law of s, one convolution
over the order's chips, cached per (order, r): the points of a sweep
differ in SNR only and share it.

The fixed policy keeps its length-N family, so a cell depends on which
chips its m zeroed and l misdetected subcarriers hit, and is weighted
P(m) * Binom(l; N - m, r).  With unit-magnitude chips every cell is one
closed form in (N - m, l).  A multi-level family averages the chip-level
error probability over every zeroed and misdetected placement of the
cell; a cell with more than 100k placements takes the mean over 10k
seeded random placements instead, an estimate rather than a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .orthocodes import build, largest_supported_order
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


def _binomial_pmf(n: int, p: float, q: float) -> np.ndarray:
    """Binom(i; n, p / (p + q)) for i = 0..n, without overflow for any n.

    p and q weigh success and failure; they come apart so that neither is
    a rounded 1 - other.  The terms are built outward from the mode, where
    neighbours only shrink, as running products of their ratios, then
    normalized.  p = 0 gives a unit mass at 0 and q = 0 one at n.
    """
    pmf = np.zeros(n + 1)
    mode = min(int((n + 1) * (p / (p + q))), n)
    pmf[mode] = 1.0
    if mode < n:
        i = np.arange(mode, n)
        pmf[mode + 1 :] = np.cumprod((n - i) / (i + 1) * (p / q))
    if mode > 0:
        i = np.arange(mode, 0, -1)
        pmf[mode - 1 :: -1] = np.cumprod(i / (n - i + 1) * (q / p))
    return pmf / np.sum(pmf)


@lru_cache(maxsize=1024)
def _hit_distribution(order: int, r: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(sums, probs): the law D_{order,r} of s = sum_i B_i c_1i^2 where it is positive.

    c_1i are the first-row chips of the order's family and B_i independent,
    1 with probability r and 0 with q = 1 - r.  The law is convolved over
    the chips one at a time on the integer sums 0..gram_diag and
    normalized, so that its mass is one however r and q round.
    """
    family = build(order)
    dist = np.zeros(int(family.gram_diag[0]) + 1)
    dist[0] = 1.0
    reach = 0  # largest sum of the chips added so far
    # smallest first, so that the reach, and the work, grows as late as it can
    for value in sorted((family.entries[0] ** 2).tolist()):
        hit = r * dist[: reach + 1]
        dist[: reach + 1] *= q
        dist[value : value + reach + 1] += hit
        reach += value
    reached = np.flatnonzero(dist)
    sums, probs = reached.astype(np.float64), dist[reached] / np.sum(dist)
    sums.setflags(write=False)
    probs.setflags(write=False)
    return sums, probs


@lru_cache(maxsize=1024)
def _chip_moments(order: int, k_users: int) -> tuple[float, float, float]:
    """(sum c1^4, sum_{k>=2} sum_n (c1_n ck_n)^2, sum c1^2) of the order's first k_users rows."""
    family = build(order)
    c1 = family.entries[0].astype(np.float64)
    cross = float(np.sum((c1 * family.entries[1:k_users]) ** 2)) if k_users > 1 else 0.0
    return float(np.sum(c1**4)), cross, float(family.gram_diag[0])


def _order_pe(order, r, q, k_users, eb, sn2, ss2) -> float:
    """Error probability of the rechosen order-`order` family.

    Each active chip is misdetected independently, with probability r
    (and clean with q = 1 - r); the Gaussian error probability is averaged
    over D_{order,r}.
    """
    fourth, cross, energy = _chip_moments(order, k_users)
    var_s = eb * eb * fourth / (energy * energy)
    var_mai = 0.5 * eb * eb * cross / (energy * energy)
    var_n = 0.5 * eb * sn2
    gi_scale = 0.5 * eb * ss2 / energy
    sums, probs = _hit_distribution(order, r, q)
    return float(probs @ q_function(eb / np.sqrt(var_s + var_mai + var_n + gi_scale * sums)))


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


def _fixed_cells(n, m, k_users, eb, sn2, ss2, needed) -> np.ndarray:
    """Error probability of the fixed family's cells (m, l), l = 0..n-m.

    needed, a boolean mask over l, limits the cells that a multi-level
    family enumerates one by one (the others stay zero); unit-magnitude
    chips fill the row in closed form.
    """
    n_free = n - m
    if n_free == 0:
        return np.array([0.5])
    if _constant_magnitude(n):
        return _unit_chip_pe(n_free, np.arange(n_free + 1), k_users, eb, sn2, ss2)
    cells = np.zeros(n_free + 1)
    for l in np.flatnonzero(needed).tolist():
        cells[l] = _pe_of_counts_fixed(n, m, l, k_users, eb, sn2, ss2)
    return cells


def average_pe(
    params: SystemParams,
    model: OccupancyModel,
    code_policy: str = "rechoose",
) -> float:
    """Slot-average error probability over the per-subcarrier trinomial.

    The trinomial is factored into P(m) estimated-busy subcarriers and
    Binom(l; N - m, r) misdetected ones among the rest, see the module
    docstring; every m counts, so the weights form a proper expectation.
    """
    p0, pm, pf = model.p_zero, model.p_mis, model.p_free
    if p0 + pm > 1.0 + 1e-12:
        raise ValueError("p_zero + p_mis exceeds 1")
    pf = max(pf, 0.0)
    free = pm + pf
    # a subcarrier not estimated busy is misdetected (r) or truly free (q);
    # at p_zero = 1 none is left and any split serves
    r, q = (pm / free, pf / free) if free > 0.0 else (0.0, 1.0)
    n = params.n_subcarriers
    terms = (params.n_users, params.energy_per_bit, params.noise_psd, params.interference_power)
    busy = _binomial_pmf(n, p0, free).tolist()
    if code_policy == "fixed":
        total = 0.0
        for m, w in enumerate(busy):
            if w > 0.0:
                hits = _binomial_pmf(n - m, r, q)
                total += w * float(hits @ _fixed_cells(n, m, *terms, needed=hits > 0.0))
        return total
    if code_policy != "rechoose":
        raise ValueError(f"unknown code policy {code_policy!r}")
    mass: dict[int, float] = {}
    for m, w in enumerate(busy):
        order = largest_supported_order(n - m)
        mass[order] = mass.get(order, 0.0) + w
    k_users = params.n_users
    total = 0.5 * sum(w for order, w in mass.items() if order < k_users)
    for order, w in mass.items():
        if order >= k_users and w > 0.0:
            total += w * _order_pe(order, r, q, *terms)
    return total


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
