"""Independent reference implementations used only by the tests.

These recompute expected values from first principles along different
code paths than the library: direct summation for variance terms,
scipy's normal survival function instead of the erfc route, scipy's
incomplete gamma instead of Poisson partial sums, and a literal
state-by-state enumeration for the averaged error probability, the
log-space Poisson partial sums that the library's sensing closed forms
replaced with incomplete gamma functions, and the cell-by-cell loop
over the trinomial, with a hypergeometric count of hits on active chips,
a dictionary subset-sum knapsack and a row-by-row weight table, that the
library's binomial mixture per code order replaced, that mixture's
own per-order loop, which the cached order table replaced, and the
chip-by-chip convolution of the hit law over all its sums, which the
windowed fold per squared value replaced.  Beside
these references to the Gaussian surrogate stand the exact error
probability of the receiver the simulator implements and a literal
per-subcarrier version of that receiver, the split of that receiver's
decisions into its four parts (R_s, R_MAI, R_GI, R_n), plus the
simulator's earlier draws: every user's sensing decision OR-fused per subcarrier, and the
rechosen signatures stacked one slot at a time.  kron_family composes a
code family as a whole-matrix Kronecker chain, parse_matrix reads the
matrix export of `fsocdma codes` back, bisection_threshold is the
plain bisection that the library's threshold solver replays, and
sample_level_rate draws the energy detector's 2u normals per trial, the
sampler that the library's draws from the statistic's law replaced.
"""

import itertools
import math
from functools import lru_cache
from math import comb

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr

from fsocdma import ber_analysis as ba
from fsocdma.orthocodes import largest_supported_order, rows
from fsocdma.sensing import DetectorConfig


def is_supported(n: int) -> bool:
    if n < 1:
        return False
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def largest_supported(n: int) -> int:
    while n > 0 and not is_supported(n):
        n -= 1
    return max(n, 0)


def poisson_upper(terms, x):
    """exp(-x) * sum_{p<terms} x^p / p!, the regularized upper gamma Q(terms, x).

    Summed in log space, so it stays finite for large x and many terms.
    """
    if terms <= 0:
        return 0.0
    if x == 0.0:
        return 1.0
    p = np.arange(terms)
    logs = -x + p * math.log(x) - gammaln(p + 1)
    return float(np.exp(logsumexp(logs)))


def log_poisson_lower(shape, y):
    """log of exp(-y) * sum_{p>=shape} y^p / p!, the regularized lower gamma P(shape, y).

    For y < shape the terms decay geometrically and are summed in log
    space from the leading one, which keeps a lower tail far below float
    epsilon exact; for y >= shape the complement of poisson_upper is
    order one and safe.
    """
    if y <= 0.0:
        return -math.inf
    if y >= shape:
        p = 1.0 - poisson_upper(shape, y)
        return math.log(p) if p > 0.0 else -math.inf
    logs = []
    log_t = -y + shape * math.log(y) - float(gammaln(shape + 1))
    p = shape
    while True:
        logs.append(log_t)
        p += 1
        log_t += math.log(y / p)
        if log_t < logs[0] - 45.0 or len(logs) > 100_000:
            break
    return float(logsumexp(logs))


def pfa_series(samples, zeta):
    """Energy-detector false-alarm probability as a Poisson partial sum."""
    return poisson_upper(samples, zeta / 2.0)


def pd_rayleigh_series(samples, zeta, gbar):
    """Rayleigh-averaged detection probability from the Poisson partial sums.

    Q(u-1, x) + ((1+gbar)/gbar)^(u-1) exp(-x/(1+gbar)) P(u-1, x gbar/(1+gbar))
    with u = samples and x = zeta/2, the second term formed in log space.
    """
    u, x = samples, zeta / 2.0
    t1 = poisson_upper(u - 1, x)
    log_low = log_poisson_lower(u - 1, x * gbar / (1.0 + gbar))
    if log_low == -math.inf:
        return t1
    return t1 + math.exp((u - 1) * math.log1p(1.0 / gbar) - x / (1.0 + gbar) + log_low)


# the prime bases of fsocdma.orthocodes, restated: order 2 is the Walsh
# kernel, 5 and 7 are circulants of their first rows
_PRIME_BASES = {
    2: [[1, 1], [1, -1]],
    3: [[1, 2, 2], [2, 1, -2], [2, -2, 1]],
    5: [np.roll([2, -3, 2, 2, 2], i).tolist() for i in range(5)],
    7: [np.roll([1, -2, -2, -1, 1, 1, -2], i).tolist() for i in range(7)],
}


def kron_family(n, dtype=np.int64):
    """(entries, gram_diag) of the order-n family as a whole-matrix Kronecker chain.

    Prime factors ascending, each new base the outer factor of the
    running product, the Gram diagonal composed the same way.
    """
    entries, gram_diag = np.ones((1, 1), dtype=dtype), np.ones(1, dtype=np.int64)
    for p in (2, 3, 5, 7):
        base = np.array(_PRIME_BASES[p], dtype=dtype)
        while n % p == 0:
            entries = np.kron(base, entries)
            gram_diag = np.kron(np.sum(base.astype(np.int64) ** 2, axis=1), gram_diag)
            n //= p
    assert n == 1, "order has a prime factor outside the table"
    return entries, gram_diag


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of orthocodes.format_matrix (returns the raw entries)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("matrix text must start with an n=<order> line")
    n = int(lines[0][2:])
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    arr = np.array(rows, dtype=np.int64)
    if arr.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    return arr


def chips_for_configuration(n, k, busy, policy):
    """Chip matrix (k, n) actually transmitted for a given busy set, or None."""
    free = [i for i in range(n) if i not in busy]
    if policy == "rechoose":
        n_active = largest_supported(len(free))
        if n_active < k:
            return None
        family = rows(n_active, k)
        chips = np.zeros((k, n))
        for r in range(k):
            chips[r, free[:n_active]] = family[r]
        return chips
    if not free:
        return None
    chips = rows(n, k).astype(float)
    chips[:, list(busy)] = 0.0
    return chips


def or_fused_draw(pr_h1, pd, pfa, k, rng, shape):
    """(occupancy, est_busy) with every user's decision drawn and OR-fused.

    Each of k users reports busy with probability pd on an occupied
    subcarrier and pfa on an idle one; est_busy is the OR of the reports.
    """
    occupancy = rng.random(shape) < pr_h1
    p_busy = np.where(occupancy, pd, pfa)
    reports = rng.random((k, *shape)) < p_busy
    return occupancy, np.any(reports, axis=0)


@lru_cache(maxsize=None)
def _placement(n_free, k, n):
    """Rechosen chips of the first k users by free rank for one free count."""
    n_active = largest_supported_order(n_free)
    table = np.zeros((k, n), dtype=np.int64)
    if n_active >= k:
        table[:, :n_active] = rows(n_active, k)
    return table


def stacked_signature_matrix(est_busy, k, code_policy):
    """signature_matrix with one placement table stacked per slot.

    The rechoose path looks each slot's table up by its free count,
    stacks them and gathers the columns by free rank.
    """
    free = ~np.asarray(est_busy, dtype=bool)
    n = free.shape[1]
    if code_policy == "rechoose":
        tables = np.stack([_placement(int(f), k, n) for f in np.count_nonzero(free, axis=1)])
        rank = np.maximum(np.cumsum(free, axis=1) - 1, 0)
        chips = np.take_along_axis(tables, rank[:, np.newaxis, :], axis=2)
        chips *= free[:, np.newaxis, :]
    else:
        chips = rows(n, k) * free[:, np.newaxis, :]
    return chips, np.einsum("bkn,bkn->bk", chips, chips)


def literal_receiver(chips, gains, lam, bits, eb, sn2, ss2, rng):
    """One slot's combining receiver written out per subcarrier, full noise drawn.

    chips (k, n) and gains (k, n) fix the slot, lam lists the misdetected
    subcarriers and bits (I, k) holds +-1.  Every interval draws complex
    noise of variance sn2 on each subcarrier and primary interference of
    variance ss2 on lam, forms
    r_n = sum_j b_j amp_j beta_jn c_jn + noise_n + interference_n and
    decides on R = Re(sum_n r_n w_n) with w_n = amp_1 c_1n conj(beta_1n).
    Returns R (I,), its parts (R_s, R_MAI, R_GI, R_n) per interval (I, 4)
    and the slot sums S, m_j (j >= 2), ||w||^2 and ||w_lam||^2, each
    summed over subcarriers one at a time.
    """
    chips = np.asarray(chips, dtype=float)
    gains = np.asarray(gains, dtype=complex)
    k, n = chips.shape
    amp = [math.sqrt(eb / sum(c * c for c in chips[j])) for j in range(k)]
    w = [amp[0] * chips[0, i] * np.conj(gains[0, i]) for i in range(n)]
    sums = {
        "signal": sum(amp[0] ** 2 * chips[0, i] ** 2 * abs(gains[0, i]) ** 2 for i in range(n)),
        "mai": np.array(
            [sum((amp[j] * gains[j, i] * chips[j, i] * w[i]).real for i in range(n))
             for j in range(1, k)]
        ),
        "w2": sum(abs(w[i]) ** 2 for i in range(n)),
        "w2_lambda": sum(abs(w[i]) ** 2 for i in lam),
    }
    decisions, parts = [], []
    for b in bits:
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(sn2 / 2)
        interf = np.zeros(n, dtype=complex)
        interf[list(lam)] = (
            rng.standard_normal(len(lam)) + 1j * rng.standard_normal(len(lam))
        ) * math.sqrt(ss2 / 2)
        r = [
            sum(b[j] * amp[j] * gains[j, i] * chips[j, i] for j in range(k)) + noise[i] + interf[i]
            for i in range(n)
        ]
        decisions.append(sum((r[i] * w[i]).real for i in range(n)))
        parts.append((
            sum(b[0] * amp[0] * (gains[0, i] * chips[0, i] * w[i]).real for i in range(n)),
            sum(b[j] * amp[j] * (gains[j, i] * chips[j, i] * w[i]).real
                for j in range(1, k) for i in range(n)),
            sum((interf[i] * w[i]).real for i in lam),
            sum((noise[i] * w[i]).real for i in range(n)),
        ))
    return np.array(decisions), np.array(parts), sums


def components(proj, params, bits, z, v) -> dict:
    """The four parts R_s, R_MAI, R_GI and R_n of phylink.receive's decisions.

    receive draws R_n + R_GI as sigma z with sigma^2 = a1^2 + a2^2, a1^2
    and a2^2 being the variances of R_n and R_GI, sigma_n^2/2 S and
    sigma_s^2/2 ||w_Lambda||^2, formed here from params.  A second standard
    normal v per interval, independent of z, splits it:
    R_n = a1 (a1 z - a2 v) / sigma and R_GI = a2 (a2 z + a1 v) / sigma are
    independent, of variances a1^2 and a2^2, and sum to sigma z; both are
    zero where sigma is.  Returns a dict of (B, I) arrays.
    """
    bits = np.asarray(bits)
    var_n = 0.5 * params.noise_psd * proj.signal
    var_gi = 0.5 * params.interference_power * proj.w2_lambda
    sigma = np.sqrt(var_n + var_gi)
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    a1 = np.sqrt(var_n)[:, np.newaxis]
    a2 = np.sqrt(var_gi)[:, np.newaxis]
    return {
        "r_signal": bits[:, :, 0] * proj.signal[:, np.newaxis],
        "r_mai": (bits[:, :, 1:].astype(np.float64) @ proj.mai[:, :, np.newaxis])[:, :, 0],
        "r_gi": a2 * inv[:, np.newaxis] * (a2 * z + a1 * v),
        "r_noise": a1 * inv[:, np.newaxis] * (a1 * z - a2 * v),
    }


def conditional_pe_from_chips(chips, lam, eb, sn2, ss2):
    """Direct-summation conditional error probability for concrete chips."""
    c1 = chips[0]
    energy = float(np.sum(c1 * c1))
    var_s = eb * eb * float(np.sum(c1**4)) / (energy * energy)
    var_mai = 0.0
    for r in range(1, chips.shape[0]):
        var_mai += float(np.sum((c1 * chips[r]) ** 2))
    var_mai *= 0.5 * eb * eb / (energy * energy)
    var_gi = 0.5 * eb * (sum(c1[i] ** 2 for i in lam) / energy) * ss2
    var_n = 0.5 * eb * sn2
    return float(_q(eb / math.sqrt(var_s + var_mai + var_gi + var_n)))


def enum_average_pe(
    n, k, p_zero, p_mis, eb, sn2, ss2, policy="rechoose", conditional=conditional_pe_from_chips
):
    """Slot-average error probability by enumerating all 3^n states.

    conditional(chips, lam, eb, sn2, ss2) gives the error probability of
    one state: the Gaussian surrogate by default, exact_conditional_pe for
    the exact receiver.
    """
    p_free = 1.0 - p_zero - p_mis
    probs = (p_free, p_zero, p_mis)
    total = 0.0
    for states in itertools.product((0, 1, 2), repeat=n):
        w = 1.0
        for s in states:
            w *= probs[s]
        if w == 0.0:
            continue
        busy = {i for i, s in enumerate(states) if s == 1}
        lam = [i for i, s in enumerate(states) if s == 2]
        chips = chips_for_configuration(n, k, busy, policy)
        if chips is None:
            total += 0.5 * w
            continue
        total += w * conditional(chips, lam, eb, sn2, ss2)
    return total


@lru_cache(maxsize=None)
def subset_sum_distributions(n_active):
    """Per subset size j, (sums, probs) of sum_{i in S} c1_i^2 over uniform j-subsets.

    A dictionary knapsack in exact Python integers over the first row of
    the order-n_active family.
    """
    sq = [int(v) ** 2 for v in rows(n_active, 1)[0]]
    counts = [dict() for _ in range(n_active + 1)]
    counts[0][0] = 1
    for value in sq:
        for j in range(n_active - 1, -1, -1):
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


def hit_law_per_chip(order, r, q):
    """The law of sum_i B_i c_1i^2 as a dense vector over the sums 0..gram_diag.

    B_i is 1 with probability r and 0 with q.  The law is convolved over
    the first-row chips one at a time, smallest first, and normalized.
    """
    squares = sorted((rows(order, 1)[0] ** 2).tolist())
    dist = np.zeros(sum(squares) + 1)
    dist[0] = 1.0
    reach = 0  # largest sum of the chips added so far
    for value in squares:
        hit = r * dist[: reach + 1]
        dist[: reach + 1] *= q
        dist[value : value + reach + 1] += hit
        reach += value
    return dist / np.sum(dist)


def loop_trinomial_weights(n, p0, pm, pf):
    """W[m, l] = P(m estimated busy, l misdetected, the rest free), one row at a time.

    Each weight is comb(n, m) p0^m comb(n - m, l) pm^l pf^(n - m - l),
    the reference for the library's factored weights P(m) Binom(l; n - m, r).
    """
    pm_l = np.array([pm**l for l in range(n + 1)])
    pf_r = np.array([pf**r for r in range(n + 1)])
    weights = np.zeros((n + 1, n + 1))
    for m in range(n + 1):
        r = n - m
        combs = np.array([comb(r, l) for l in range(r + 1)], dtype=np.float64)
        weights[m, : r + 1] = comb(n, m) * p0**m * combs * pm_l[: r + 1] * pf_r[r::-1]
    return weights


def order_sum_average_pe(params, model):
    """Rechoose average_pe as one sum per code order, each order on its own.

    The busy-count loop and the per-order error probability that the
    library's cached order table replaced, kept term by term: every
    busy count m looks up largest_supported_order(N - m), the chip moments
    come from the order's first K rows, and each order makes its own
    q_function call over its hit law.
    """
    p0, pm, pf = model.p_zero, model.p_mis, max(model.p_free, 0.0)
    free = pm + pf
    r, q = (pm / free, pf / free) if free > 0.0 else (0.0, 1.0)
    n, k_users = params.n_subcarriers, params.n_users
    eb, sn2, ss2 = 1.0, params.noise_psd, params.interference_power
    busy = ba._binomial_pmf(n, p0, free).tolist()
    mass: dict[int, float] = {}
    for m, w in enumerate(busy):
        order = largest_supported_order(n - m)
        mass[order] = mass.get(order, 0.0) + w
    total = 0.5 * sum(w for order, w in mass.items() if order < k_users)
    for order, w in mass.items():
        if order >= k_users and w > 0.0:
            family = rows(order, k_users)
            c1 = family[0].astype(np.float64)
            fourth = float(np.sum(c1**4))
            cross = float(np.sum((c1 * family[1:]) ** 2))
            energy = float(np.sum(c1**2))
            var_s = eb * eb * fourth / (energy * energy)
            var_mai = 0.5 * eb * eb * cross / (energy * energy)
            var_n = 0.5 * eb * sn2
            gi_scale = 0.5 * eb * ss2 / energy
            sums, probs = ba._hit_distribution(order, r, q)
            pe = ba.q_function(eb / np.sqrt(var_s + var_mai + var_n + gi_scale * sums))
            total += w * float(probs @ pe)
    return total


def _q(x):
    """Q(x) through scipy's normal CDF ufunc (cheaper per call than norm.sf)."""
    return ndtr(-np.asarray(x, dtype=float))


def _loop_fixed_cell(n, m, l, k, eb, sn2, ss2):
    """Fixed length-n family with zeroed chips: every placement of the cell."""
    entries = rows(n, n).astype(np.float64)
    sq1 = entries[0] ** 2
    n_free = n - m
    if np.all(sq1 == sq1[0]):
        return float(_q(eb / math.sqrt(
            eb * eb / n_free + 0.5 * eb * eb * (k - 1) / n_free
            + 0.5 * eb * l * ss2 / n_free + 0.5 * eb * sn2
        )))
    total = 0.0
    count = 0
    for busy in itertools.combinations(range(n), m):
        chips = entries[:k].copy()
        chips[:, list(busy)] = 0.0
        rest = [i for i in range(n) if i not in busy]
        for lam in itertools.combinations(rest, l):
            total += conditional_pe_from_chips(chips, lam, eb, sn2, ss2)
            count += 1
    return total / count


def _loop_rechoose_cell(n, m, l, k, eb, sn2, ss2):
    """Rechoose cell: hypergeometric count j of hits on active chips, then placements."""
    n_free = n - m
    n_active = largest_supported(n_free)
    if n_free == 0 or n_active < k:
        return 0.5
    family = rows(n_active, k)
    c1 = family[0].astype(np.float64)
    energy = float(np.sum(c1 * c1))
    var_s = eb * eb * float(np.sum(c1**4)) / energy**2
    var_mai = 0.5 * eb * eb * sum(
        float(np.sum((c1 * family[r]) ** 2)) for r in range(1, k)
    ) / energy**2
    var_n = 0.5 * eb * sn2
    pe = 0.0
    for j in range(max(0, l - (n_free - n_active)), min(l, n_active) + 1):
        weight = comb(n_active, j) * comb(n_free - n_active, l - j) / comb(n_free, l)
        sums, probs = subset_sum_distributions(n_active)[j]
        var = var_s + var_mai + var_n + 0.5 * eb * ss2 * sums / energy
        pe += weight * float(np.dot(probs, _q(eb / np.sqrt(var))))
    return pe


def loop_average_pe(n, k, p_zero, p_mis, eb, sn2, ss2, policy="rechoose"):
    """Slot-average error probability of the Gaussian surrogate, one cell at a time.

    Loops over every (m estimated busy, l misdetected) cell of the
    trinomial and averages each cell over its placements: the rechoose
    cell through the hypergeometric count of hits on active chips and the
    subset-sum distribution of the squared chips, the fixed cell by
    enumerating the zeroed and misdetected sets (unit-magnitude chips
    need counts only).
    """
    p_free = max(1.0 - p_zero - p_mis, 0.0)
    total = 0.0
    for m in range(n + 1):
        for l in range(n - m + 1):
            w = comb(n, m) * comb(n - m, l) * p_zero**m * p_mis**l * p_free ** (n - m - l)
            if w == 0.0:
                continue
            if policy == "rechoose":
                cell = _loop_rechoose_cell(n, m, l, k, eb, sn2, ss2)
            elif m == n:
                cell = 0.5
            else:
                cell = _loop_fixed_cell(n, m, l, k, eb, sn2, ss2)
            total += w * cell
    return total


# Gil-Pelaez quadrature nodes: trapezoid rule uniform in log(omega)
_OMEGA = np.logspace(-16.0, 9.0, 4000)
_LOG_OMEGA = np.log(_OMEGA)


def _subcarrier_cf(a, v):
    """Characteristic function of a|beta|^2 + Re(conj(beta) e) on _OMEGA.

    beta ~ CN(0, 1) and e ~ CN(0, v) independent; conditioned on beta the
    second term is N(0, |beta|^2 v / 2) and |beta|^2 is Exp(1), so
    phi(w) = 1 / (1 - i w a + w^2 v / 4).  Shape (len(a), len(_OMEGA)).
    """
    a = np.asarray(a, dtype=float)[:, None]
    v = np.asarray(v, dtype=float)[:, None]
    return 1.0 / (1.0 - 1j * _OMEGA * a + 0.25 * _OMEGA**2 * v)


def _subcarrier_terms(chips, eb, sn2):
    """Per-subcarrier a_n and var(e_n) without primary interference."""
    amp2 = eb / np.sum(chips * chips, axis=1)
    a = amp2[0] * chips[0] ** 2
    mai = np.sum(amp2[1:, None] * chips[1:] ** 2, axis=0)
    return a, a * (mai + sn2)


def _below_zero(cf, mass=1.0):
    """Gil-Pelaez: P(R < 0) = mass/2 - (1/pi) int_0^inf Im cf(w) dw / w."""
    return mass / 2.0 - float(np.trapezoid(cf.imag, _LOG_OMEGA)) / math.pi


def exact_conditional_pe(chips, lam, eb, sn2, ss2):
    """Exact P(R < 0 | masks) of the combining receiver for concrete chips.

    Averages over the fading of every user, the other users' bits, noise
    and primary interference on the misdetected subcarriers lam; see
    exact_average_pe for the derivation.
    """
    a, v = _subcarrier_terms(np.asarray(chips, dtype=float), eb, sn2)
    lam = list(lam)
    v[lam] += a[lam] * ss2
    return _below_zero(np.prod(_subcarrier_cf(a, v), axis=0))


def _placement_cfs(n_active, k, eb, sn2, ss2):
    """Row j: CF of R averaged over the uniform j-subsets of hit chips.

    Expands prod_i (clean_i + t hit_i) by dynamic programming over the
    chip positions; the coefficient of t^j sums the CF over all j-subsets.
    """
    chips = rows(n_active, k).astype(float)
    a, v = _subcarrier_terms(chips, eb, sn2)
    clean = _subcarrier_cf(a, v)
    hit = _subcarrier_cf(a, v + a * ss2)
    poly = np.zeros((n_active + 1, _OMEGA.size), dtype=complex)
    poly[0] = 1.0
    for i in range(n_active):
        # after i positions only the coefficients of t^0..t^i are nonzero
        poly[1 : i + 2] = poly[1 : i + 2] * clean[i] + poly[: i + 1] * hit[i]
        poly[0] *= clean[i]
    counts = np.array([comb(n_active, j) for j in range(n_active + 1)], dtype=float)
    return poly / counts[:, None]


def exact_average_pe(n, k, p_zero, p_mis, eb, sn2, ss2):
    """Exact slot-average error probability of the simulated receiver (rechoose).

    With user 1 sending +1, the decision variable is
    R = sum_n a_n |beta_1n|^2 + Re(conj(beta_1n) e_n) with
    a_n = amp_1^2 c_1n^2 and
    e_n ~ CN(0, a_n (sum_{k>=2} amp_k^2 c_kn^2 + sn2 + ss2 * 1[n in Lambda])),
    independent across subcarriers and of beta_1 (the other users' bits
    only flip the signs of circular Gaussians).  Each subcarrier is a 2x2
    Hermitian form with eigenvalues (a_n +- sqrt(a_n^2 + var e_n)) / 2, so
    R is a weighted sum of independent exponentials and its
    characteristic function is the product of the per-subcarrier factors
    of _subcarrier_cf.  P(R < 0) follows from the Gil-Pelaez inversion
    (Biglieri, Caire, Taricco & Ventura-Traveset 1998).  The inversion is
    linear in the characteristic function, so the function is averaged
    first over the per-subcarrier trinomial (m estimated busy, l
    misdetected), the hypergeometric count j of misdetections on active
    chips and their uniform placement, and integrated once.  Cells that
    cannot carry k users are erasures of value 1/2, as in the simulator.

    The quadrature is the trapezoid rule on 4000 nodes uniform in
    log(omega) over [1e-16, 1e9].  The truncated low end contributes about
    E[R] * 1e-16 / pi = eb * 3e-17 and the high end decays as
    omega^(-2k), so rounding dominates: against the regularized incomplete
    beta of the all-free Walsh case the absolute error stays below 1e-15.
    """
    p_free = 1.0 - p_zero - p_mis
    mixed = np.zeros(_OMEGA.size, dtype=complex)
    erased = 0.0
    feasible = 0.0
    cell_weights: dict[int, np.ndarray] = {}
    for m in range(n + 1):
        n_free = n - m
        n_active = largest_supported(n_free)
        for l in range(n_free + 1):
            w = comb(n, m) * comb(n_free, l) * p_zero**m * p_mis**l * p_free ** (n_free - l)
            if w == 0.0:
                continue
            if n_active < k:
                erased += w
                continue
            feasible += w
            row = cell_weights.setdefault(n_active, np.zeros(n_active + 1))
            for j in range(min(l, n_active) + 1):
                row[j] += w * comb(n_active, j) * comb(n_free - n_active, l - j) / comb(n_free, l)
    for n_active, row in cell_weights.items():
        mixed += row @ _placement_cfs(n_active, k, eb, sn2, ss2)
    return erased / 2.0 + _below_zero(mixed, feasible)


def bisection_threshold(detector, target, mode, tol=1e-12, calls=None):
    """The detector's sensing threshold by plain bisection, the solver the library had before.

    The upper bracket doubles from 1 until the probability falls below
    the target, then the bracket halves until the probability is within
    tol or the bracket is 1e-14 of its upper end.  calls, a list, gets
    every threshold evaluated.
    """
    from fsocdma.sensing import pd_rayleigh, pfa

    closed_form = pfa if mode == "for_pfa" else pd_rayleigh

    def f(zeta):
        if calls is not None:
            calls.append(zeta)
        return closed_form(detector, zeta)

    lo, hi = 0.0, 1.0
    while f(hi) >= target:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = f(mid)
        if abs(v - target) <= tol:
            return mid
        if v > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(1e-14, 1e-14 * hi):
            break
    return 0.5 * (lo + hi)


# Sample-level trials per chunk: an occupied chunk draws its trials' normals,
# then their SNRs.  The normals come in pieces of whole trials, about
# _RATE_PIECE normals each, so a call holds one piece and two floats per
# trial of its chunk, whatever the number of samples.
_RATE_CHUNK = 50_000
_RATE_PIECE = 1 << 18


def sample_level_rate(
    detector: DetectorConfig, occupied: bool, zeta: float, trials: int,
    rng: np.random.Generator,
) -> float:
    """Share of sample-level trials above threshold zeta, _RATE_CHUNK trials at a time.

    A trial keeps its first normal and the sum of squares of the other
    2u - 1; under H1 the first is shifted by sqrt(2 gamma) once the
    chunk's SNRs gamma are drawn.
    """
    width = 2 * detector.samples
    rows = max(1, _RATE_PIECE // width)
    hits = 0
    done = 0
    while done < trials:
        b = min(_RATE_CHUNK, trials - done)
        first, rest = np.empty(b), np.empty(b)
        for lo in range(0, b, rows):
            z = rng.standard_normal((min(rows, b - lo), width))
            first[lo:lo + len(z)] = z[:, 0]
            rest[lo:lo + len(z)] = np.einsum("ij,ij->i", z[:, 1:], z[:, 1:])
            del z  # the next piece is drawn with this one freed
        if occupied:
            first += np.sqrt(2.0 * rng.exponential(detector.mean_snr_linear, size=b))
        hits += int(np.count_nonzero(first * first + rest > zeta))
        done += b
    return hits / trials
