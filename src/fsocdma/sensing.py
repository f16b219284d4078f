"""Energy-detection spectrum sensing statistics and the cooperative operating point.

Closed forms for the false-alarm and Rayleigh-averaged detection
probabilities of an energy detector collecting an integer number of
samples, each at a threshold passed beside the detector; a threshold
solver (a bisection that evaluates the closed form only where earlier
evaluations leave a comparison open); and the operating point of K
users under OR fusion: the threshold that meets a fused detection
target, the local and fused rates it gives, and the per-subcarrier
chip-zeroing / misdetection model that both the BER analysis and the
link simulator consume.

The detection statistic is chi-squared with 2*samples degrees of
freedom: central under the idle hypothesis, noncentral with parameter
2*gamma under the occupied hypothesis, gamma exponentially distributed
over the Rayleigh sensing channel (Urkowitz, Proc. IEEE 1967);
`decision_rates` draws it from this law to check the closed forms.
Both closed forms are regularized incomplete gamma functions at integer
shape (Digham, Alouini & Simon, IEEE Trans. Commun. 2007), evaluated
here with the standard library's math module: the power series of P
below x = a + 1 and the continued fraction of Q above it, each scaled
by exp(a ln x - x - lgamma(a)).  The Rayleigh-averaged detection
probability uses exp(-zeta/(2*(1+gbar))) in its second term; the
(1-gbar) variant sometimes seen in print diverges near gbar=1 and is
not physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

_EPS = math.ulp(1.0)


class NoSolutionError(ValueError):
    """Threshold target is outside the achievable open interval (0, 1)."""


@dataclass(frozen=True)
class DetectorConfig:
    """Energy detector: its sensing time and its mean sensing SNR.

    samples: number of collected samples (time-bandwidth product), >= 2
    mean_snr_db: mean sensing SNR (dB) entering the Rayleigh average

    The decision threshold zeta is an argument of the closed forms, not a field.
    """

    samples: int
    mean_snr_db: float

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"detector.samples={self.samples} must be at least 2")
        try:
            linear = self.mean_snr_linear
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ValueError(
                f"detector.mean_snr_db: a mean sensing SNR of {self.mean_snr_db!r} dB "
                "is not finite and positive in linear terms"
            )

    @property
    def mean_snr_linear(self) -> float:
        return 10.0 ** (self.mean_snr_db / 10.0)


@dataclass(frozen=True)
class OccupancyModel:
    """Per-subcarrier chip-zeroing and misdetection probabilities."""

    pr_h1: float
    p_zero: float  # chip set to zero (estimated busy)
    p_mis: float  # occupied but estimated free

    @property
    def p_free(self) -> float:
        """Idle and correctly estimated free: the remaining trinomial mass."""
        return 1.0 - self.p_zero - self.p_mis

    @classmethod
    def from_fused(cls, pr_h1: float, qd: float, qfa: float) -> OccupancyModel:
        """The model of fused rates qd and qfa, every subcarrier busy with probability pr_h1."""
        return cls(pr_h1, pr_h1 * qd + (1.0 - pr_h1) * qfa, (1.0 - qd) * pr_h1)


@dataclass(frozen=True)
class OperatingPoint:
    """Solved cooperative sensing point shared by analysis and simulation."""

    threshold: float  # the energy threshold every user applies
    pd_local: float  # one user's detection and false-alarm probabilities
    pfa_local: float
    qd: float  # the K users' OR-fused detection and false-alarm probabilities
    qfa: float
    model: OccupancyModel  # the per-subcarrier model of the fused decisions


def _log_prefactor(a: int, x: float) -> float:
    """log of x^a e^-x / Gamma(a), the scale shared by P(a, x) and Q(a, x)."""
    return a * math.log(x) - x - math.lgamma(a)


def _lower_series(a: int, x: float) -> float:
    """P(a, x) over the prefactor: sum_{n>=0} x^n / (a (a+1) ... (a+n)).

    Used for x < a + 1, where the ratio x/(a+n) of successive terms is
    below one from the first step on.
    """
    term = total = 1.0 / a
    k = a
    while term > 1e-17 * total:
        k += 1
        term *= x / k
        total += term
    return total


def _upper_fraction(a: int, x: float) -> float:
    """Q(a, x) over the prefactor: Legendre's continued fraction by Lentz's method.

    Used for x >= a + 1, where every denominator is positive; at integer a
    the partial numerators -i(i - a) vanish at i = a, so it ends there at
    the latest (a NaN x, which never converges, ends there too).
    """
    b = x + 1.0 - a
    c = math.inf
    d = h = 1.0 / b
    for i in range(1, a + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return h


def _log_poisson_lower(a: int, x: float) -> float:
    """log P(a, x), the regularized lower incomplete gamma at integer shape a >= 1.

    Formed in log space, so it stays finite where P itself underflows
    (x far below a).
    """
    if x <= 0.0:
        return -math.inf
    if x < a + 1.0:
        return _log_prefactor(a, x) + math.log(_lower_series(a, x))
    return math.log1p(-math.exp(_log_prefactor(a, x)) * _upper_fraction(a, x))


def _poisson_upper(a: int, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), the regularized upper incomplete gamma at integer shape a >= 1."""
    if x <= 0.0:
        return 1.0
    if x < a + 1.0:
        return -math.expm1(_log_poisson_lower(a, x))
    return math.exp(_log_prefactor(a, x)) * _upper_fraction(a, x)


def _half(zeta: float) -> float:
    """zeta / 2, the incomplete-gamma argument of a threshold that is finite and >= 0."""
    if not (math.isfinite(zeta) and zeta >= 0):
        raise ValueError(f"threshold zeta={zeta!r} must be finite and nonnegative")
    return zeta / 2.0


def pfa(detector: DetectorConfig, zeta: float) -> float:
    """False-alarm probability of the energy detector at threshold zeta.

    The regularized upper incomplete gamma Q(samples, zeta/2).  Strictly
    decreasing in the threshold.
    """
    return _poisson_upper(detector.samples, _half(zeta))


def pd_rayleigh(detector: DetectorConfig, zeta: float) -> float:
    """Detection probability at threshold zeta, averaged over Rayleigh fading.

    With u = samples, x = zeta/2, gbar the linear mean SNR:

        Pd = Q(u-1, x)
           + ((1+gbar)/gbar)^(u-1) * exp(-x/(1+gbar)) * P(u-1, x*gbar/(1+gbar))

    where Q and P are the regularized upper/lower incomplete gamma
    functions.  The second term is formed in log space, so its large
    prefactor and small P(u-1, .) never overflow or underflow on their
    own.
    """
    u = detector.samples
    gbar = detector.mean_snr_linear
    x = _half(zeta)
    t1 = _poisson_upper(u - 1, x)
    y = x * gbar / (1.0 + gbar)
    if not math.isfinite(y):  # x * gbar overflowed: its limit, never inf / inf
        y = x / (1.0 + 1.0 / gbar)
    log_p_low = _log_poisson_lower(u - 1, y)
    if log_p_low == -math.inf:
        return t1
    log_t2 = (u - 1) * math.log1p(1.0 / gbar) - x / (1.0 + gbar) + log_p_low
    return t1 + math.exp(min(log_t2, 0.0))


# Trials drawn at a time, so memory stays flat in the number of trials.
_DRAW_CHUNK = 1 << 16


def decision_rates(
    detector: DetectorConfig, occupied: bool, thresholds: tuple, trials: int, rng
) -> list[float]:
    """Share of `trials` draws of the energy statistic above each threshold.

    A chunk at a time from its law: 2 Gamma(u, 1) idle; occupied, the SNRs
    gamma ~ Exp(gbar), then noncentral chi-squared (2u, 2 gamma).
    """
    hits = np.zeros(len(thresholds), dtype=np.int64)
    for done in range(0, trials, _DRAW_CHUNK):
        b = min(_DRAW_CHUNK, trials - done)
        if occupied:
            nonc = 2.0 * rng.exponential(detector.mean_snr_linear, size=b)
            stat = rng.noncentral_chisquare(2 * detector.samples, nonc)
        else:
            stat = 2.0 * rng.standard_gamma(detector.samples, size=b)
        hits += np.count_nonzero(stat[:, None] > np.asarray(thresholds), axis=0)
    return (hits / trials).tolist()


# The solved threshold's probability lies within _TOL of the target.
_TOL = 1e-12
# A known probability settles a comparison at another threshold only with
# this much to spare, more than the closed forms' rounding.
_MARGIN = 1e-14


def _logit(q: float) -> float:
    """log(q / (1 - q)), infinite at 0 and 1; both tails run near linear in it."""
    if 0.0 < q < 1.0:
        return math.log(q) - math.log1p(-q)
    return math.copysign(math.inf, q - 0.5)


def solve_threshold(
    detector: DetectorConfig, target: float, mode: Literal["for_pfa", "for_pd"]
) -> float:
    """Threshold zeta at which the detector meets a false-alarm or detection target.

    Bisection on the monotone (decreasing) map zeta -> probability; the
    upper bracket is grown geometrically until it straddles the target.
    The bisection evaluates the probability only where no evaluation
    made before decides its comparisons: a known p(x) more than
    _TOL + _MARGIN above the target decides them at every zeta <= x, and
    one as far below it at every zeta >= x.  Before the bisection, a
    regula falsi search (Illinois, on the logit of p) evaluates
    thresholds just above and just below the band |p - target| <= _TOL,
    so the bisection returns the same float as a plain one in a fraction
    of the evaluations.
    """
    if not (0.0 < target < 1.0):
        raise NoSolutionError(f"target {target} outside the open interval (0, 1)")
    if mode not in ("for_pfa", "for_pd"):
        raise ValueError(f"unknown mode {mode!r}")
    closed_form = pfa if mode == "for_pfa" else pd_rayleigh

    seen = {0.0: 1.0}  # both probabilities are 1 at zeta = 0
    above, below = 0.0, math.inf  # the closest thresholds known outside the band

    def p(zeta: float) -> float:
        """f(zeta), or a known probability that decides every comparison alike."""
        nonlocal above, below
        if zeta <= above:
            return seen[above]
        if zeta >= below:
            return seen[below]
        v = seen[zeta] = closed_form(detector, zeta)
        if v > target + _TOL + _MARGIN:
            above = zeta
        elif v < target - _TOL - _MARGIN:
            below = zeta
        return v

    hi = 1.0  # a coarse bracket for the search; the doubling below then reads known values
    while p(hi) >= target and hi < 2.0**199:
        hi *= 4.0
    for level in (target + 2.0 * _TOL, target - 2.0 * _TOL):
        # Illinois toward p = level, a _TOL outside the band, until the known
        # threshold on that side of the band is within a _TOL of the level
        a = max((x for x, v in seen.items() if v > level), default=None)
        b = min((x for x, v in seen.items() if v < level), default=None)
        if a is None or b is None:
            continue
        goal = _logit(level)
        fa, fb, kept = _logit(seen[a]) - goal, _logit(seen[b]) - goal, 0
        for _ in range(60):
            if abs(seen[above if level > target else below] - level) <= _TOL:
                break
            x = a + fa * (b - a) / (fa - fb) if fa > fb else a
            if not a < x < b:  # nan beside an infinite logit, or a stalled step
                x = 0.5 * (a + b)
                if not a < x < b:
                    break
            v = p(x)
            if v > level:
                a, fa = x, _logit(v) - goal
                fb *= 0.5 if kept > 0 else 1.0  # halve the end kept twice
                kept = 1
            elif v < level:
                b, fb = x, _logit(v) - goal
                fa *= 0.5 if kept < 0 else 1.0
                kept = -1
            else:
                break
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if p(hi) < target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise NoSolutionError(
            f"no threshold reaches target {target} with detector.samples={detector.samples} "
            f"at detector.mean_snr_db={detector.mean_snr_db!r} dB (accumulated)"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = p(mid)
        if abs(v - target) <= _TOL:
            return mid
        if v > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(1e-14, 1e-14 * hi):
            break
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def operating_point(
    k: int, target_pd: float, detector: DetectorConfig, pr_h1: float
) -> OperatingPoint:
    """The operating point of k users whose OR-fused detection probability is target_pd.

    Each user's pd is the k-th OR-root of the target, and the threshold is
    solved for it against the Rayleigh-averaged closed form; its false-alarm
    rate is carried through, never assumed zero.
    """
    pd_local = 1.0 - (1.0 - target_pd) ** (1.0 / k)
    zeta = solve_threshold(detector, pd_local, "for_pd")
    pfa_local = pfa(detector, zeta)
    # OR rule: decided free only if every user decides it free.  qfa is
    # 1 - (1 - pfa_local)^k without the cancellation that loses a small rate.
    qd = 1.0 - math.prod([1.0 - pd_local] * k)
    qfa = -math.expm1(k * math.log1p(-pfa_local))
    return OperatingPoint(
        zeta, pd_local, pfa_local, qd, qfa, OccupancyModel.from_fused(pr_h1, qd, qfa)
    )
