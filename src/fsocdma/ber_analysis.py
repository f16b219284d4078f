"""Closed-form bit error rate of the first user's receiver.

The decision variable is approximated as Gaussian; conditioned on the
modified chips, and with energies in units of the energy per bit E_b,
its variance splits into four terms:

    var_s   = sum(c1^4) / (sum(c1^2))^2
    var_mai = 1/2 * sum_{k>=2} sum_n (c1_n ck_n)^2 / (sum(c1^2))^2
    var_gi  = 1/2 * (sum_{n in Lambda} c1_n^2 / sum(c1^2)) * sigma_s^2
    var_n   = sigma_n^2 / 2

and the conditional error probability is Q(1 / sqrt(sum of terms)).
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
                 + sum_a P_a * sum_s D_{a,r}(s) * Q(1 / sqrt(V_a + g_a * s))

where P_a is the mass of the m that share order a, V_a = var_s + var_mai
+ var_n and g_a * s = var_gi.  D_{a,r} is the law of s, cached per
(order, r) on its window.  The c_v chips of one squared value v add
v times a Binom(c_v, r) count, so the law is folded over the distinct
squared values, at most 16 at any supported order, by shift and
add on the lattice v.  It keeps only the window of sums outside of
which at most _HIT_FLOOR = 1e-30 of its mass lies, renormalized there,
and each fold drops the ends of its binomial and of its partial law that
hold at most _FOLD_FLOOR = 1e-60, so that the work, like the law, grows
with the window and not with sum c1^2.  The dropped mass moves an order's
error probability by at most _HIT_FLOOR times its largest conditional
value; on every output checked the printed digits stay the same.

Nothing but sigma_n^2 and sigma_s^2 depends on the SNR, so one table
per (N, K, sensing point) holds the rest: the erased mass, and per order
a >= K its P_a, its chip moments and a reference to its cached law.  The
points of a curve, and fig2 and fig3 at the same (N, K), share it.  The
chip moments sum c1^4, sum_{k>=2} (c1 ck)^2 and sum c1^2 come from the
prime bases as exact integers (orthocodes.first_row_moments), without
composing the rows.  A point spreads V_a and g_a over the laws and makes
one q_function call per group of orders, a group holding at most
_Q_CHUNK law values (at N <= 64 all orders are one group).

The fixed policy keeps its length-N family and zeroes chips in place.
Its variance depends only on E = sum c1^2, 2F + X = sum (2 c1^4 +
sum_{k>=2} c1^2 ck^2) over the not-busy chips and G = sum c1^2 over the
misdetected ones.  So the chips fall into classes of equal (c1^2,
2 c1^4 + sum_k c1^2 ck^2), and only the counts of a class's b busy and
l misdetected positions matter: b is Binom(n_c, p_zero) and l is
Binom(n_c - b, r), independently across classes.  average_pe sums Q over
the product of the classes' (b, l) grids, (n_c + 1)(n_c + 2)/2 cells
each, exactly, _Q_CHUNK cells at a time; a cell without chips is the
erasure value 1/2.  A Walsh family is one class.  A product grid
larger than the one class of order 4096 is rejected, naming the keys,
when the run configuration is built: for every K <= 8 that keeps N <= 20,
the powers of two and 24, 28, 40, 48, 56, 80, 96, 112 and 160.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .orthocodes import ORDER_LIMIT, first_row_moments, is_supported_order, rows
from .phylink import SystemParams, signature_matrix
from .sensing import OccupancyModel

_SQRT2 = math.sqrt(2.0)
# values per batch: Python floats in q_function, law values per rechoose
# order group, cells per fixed-policy block
_Q_CHUNK = 1 << 16
# the largest fixed-policy grid: the one chip class of the largest Walsh order
_GRID_LIMIT = (ORDER_LIMIT + 1) * (ORDER_LIMIT + 2) // 2
# mass a hit law may leave outside its window, and far below it, the mass
# each fold may drop at either end of its partial law and its binomial;
# a fold keeps arrays of at most _FOLD_WHOLE values whole, as their cut
# costs more numpy calls than it saves
_HIT_FLOOR = 1e-30
_FOLD_FLOOR = 1e-60
_FOLD_WHOLE = 128


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x), element by element.

    0.5 * erfc(x / sqrt(2)) with the C library's erfc (math.erfc).  A float
    gives a float; other input gives float64 values of its shape (a numpy
    scalar for 0-d input).
    """
    if isinstance(x, float):
        return 0.5 * math.erfc(x / _SQRT2)
    z = np.asarray(x, dtype=np.float64) / _SQRT2
    erfc = np.empty(z.size)
    for i in range(0, z.size, _Q_CHUNK):  # so that few Python floats live at once
        chunk = z.ravel()[i : i + _Q_CHUNK].tolist()
        erfc[i : i + len(chunk)] = np.fromiter(map(math.erfc, chunk), np.float64, len(chunk))
    return 0.5 * erfc.reshape(z.shape)


def _chip_pe(chips, misdetected, sn2, ss2) -> float:
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
    var_s = float(np.sum(c1**4)) / (e1 * e1)
    var_mai = 0.5 * float(np.sum((c1 * chips[1:]) ** 2)) / (e1 * e1)
    var_gi = 0.5 * (float(np.sum(c1[misdetected] ** 2)) / e1) * ss2
    var_n = 0.5 * sn2
    return float(q_function(1.0 / math.sqrt(var_s + var_mai + var_gi + var_n)))


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


def _window(dist: np.ndarray, mass: float, whole: int = 0) -> tuple[int, int]:
    """(start, stop) such that dist[:start] and dist[stop:] each hold at most
    `mass`, dist being a law of mass one; (0, dist.size) for at most
    `whole` values.

    No value above `mass` can lie outside, so only the runs before the
    first and after the last such value are summed.
    """
    if dist.size <= whole:
        return 0, dist.size
    above = dist > mass
    first, last = above.argmax(), dist.size - above[::-1].argmax()
    start = dist[:first].cumsum().searchsorted(mass, side="right")
    end = dist[last:][::-1].cumsum().searchsorted(mass, side="right")
    return int(start), dist.size - int(end)


def _fold(dist: np.ndarray, pmf: np.ndarray, value: int) -> np.ndarray:
    """Law of x + value * j on 0.. for independent x ~ dist and j ~ pmf, both from 0.

    Shift and add, one numpy pass per term of the shorter of the two.
    """
    out = np.zeros(dist.size + (pmf.size - 1) * value)
    if pmf.size <= dist.size:
        term = np.empty_like(dist)
        for j, w in enumerate(pmf.tolist()):
            out[j * value : j * value + dist.size] += np.multiply(dist, w, out=term)
    else:
        for i, w in enumerate(dist.tolist()):
            out[i : i + (pmf.size - 1) * value + 1 : value] += w * pmf
    return out


@lru_cache(maxsize=256)
def _hit_count(count: int, r: float, q: float) -> tuple[int, np.ndarray]:
    """(first, pmf): Binom(j; count, r) for j = first, first + 1, ...

    Without the ends that hold at most _FOLD_FLOOR of the mass, for more
    than _FOLD_WHOLE terms.  Orders share it wherever they have count
    chips of one squared value.
    """
    pmf = _binomial_pmf(count, r, q)
    first, stop = _window(pmf, _FOLD_FLOOR, _FOLD_WHOLE)
    pmf = pmf[first:stop]
    pmf.setflags(write=False)
    return first, pmf


@lru_cache(maxsize=1024)
def _hit_distribution(order: int, r: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(sums, probs): the law D_{order,r} of s = sum_i B_i c_1i^2 on its window.

    c_1i are the first-row chips of the order's family and B_i independent,
    1 with probability r and 0 with q = 1 - r.  The chips of one squared
    value v add v times a Binom(c_v, r) count, so the law is folded over
    the distinct values, smallest first.  Each fold trims the ends of its
    binomial and of the partial law that hold at most _FOLD_FLOOR of the
    mass, from arrays longer than _FOLD_WHOLE; the result keeps the
    positive sums of the window outside of which at most _HIT_FLOOR of
    the mass lies (half at either end), normalized there, so that its
    mass is one however r and q round.
    """
    counts = np.bincount(np.square(rows(order, 1)[0]))
    values = np.flatnonzero(counts)
    dist, low = np.ones(1), 0  # the partial law on the sums low, low + 1, ...
    for value, count in zip(values.tolist(), counts[values].tolist()):
        first, pmf = _hit_count(count, r, q)
        dist = _fold(dist, pmf, value)
        start, stop = _window(dist, _FOLD_FLOOR, _FOLD_WHOLE)
        dist, low = dist[start:stop], low + first * value + start
    start, stop = _window(dist, 0.5 * _HIT_FLOOR)
    dist, low = dist[start:stop], low + start
    reached = np.flatnonzero(dist)
    sums, probs = (low + reached).astype(np.float64), dist[reached] / np.sum(dist)
    sums.setflags(write=False)
    probs.setflags(write=False)
    return sums, probs


@lru_cache(maxsize=32)
def _rechoose_table(n, k_users, p0, free, r, q) -> tuple[float, tuple[tuple, ...]]:
    """(erased mass, order groups) of the rechoose closed form; no SNR enters.

    Busy count m rechooses the order a(m) = largest_supported_order(N - m),
    found in one upward pass over the free counts; P_a sums Binom(m; N,
    p_zero) over the m of each order, in ascending m.  Orders below K are
    erased.  The others are grouped, in order of first appearance, into
    runs of at most _Q_CHUNK law values (an order with more forms a group
    of its own).  A group is (P_a, sum c1^4, sum_{k>=2} (c1 ck)^2,
    sum c1^2, law length) as arrays over its orders, plus the orders'
    cached laws D_{a,r}, referred to and not copied.
    """
    orders = [0] * (n + 1)  # orders[f]: the order that f free subcarriers carry
    for f in range(1, n + 1):
        orders[f] = f if is_supported_order(f) else orders[f - 1]
    mass: dict[int, float] = {}
    for m, w in enumerate(_binomial_pmf(n, p0, free).tolist()):
        mass[orders[n - m]] = mass.get(orders[n - m], 0.0) + w
    erased = sum(w for order, w in mass.items() if order < k_users)
    runs, length = [], _Q_CHUNK  # full, so that the first order opens a run
    for order, w in mass.items():
        if order < k_users or w <= 0.0:
            continue
        law = _hit_distribution(order, r, q)
        if length + law[0].size > _Q_CHUNK:
            runs.append([])
            length = 0
        runs[-1].append((w, first_row_moments(order, k_users), law))
        length += law[0].size
    groups = []
    for run in runs:
        mass_a, moments, laws = zip(*run)
        fourth, cross, energy = np.array(moments, dtype=np.float64).T
        sizes = np.array([sums.size for sums, _ in laws])
        groups.append((np.array(mass_a), fourth, cross, energy, sizes, laws))
    return erased, tuple(groups)


@lru_cache(maxsize=1024)
def fixed_chip_classes(n_subcarriers: int, n_users: int) -> tuple[tuple[int, int, int], ...]:
    """(positions, c1^2, 2 c1^4 + sum_{k>=2} c1^2 ck^2) per fixed-policy chip class.

    A class gathers the positions of the order-N family's first K rows on
    which both quantities are equal; the largest class comes first.  A
    class of n_c positions has (n_c + 1)(n_c + 2)/2 (busy, misdetected)
    cells, and a product grid larger than the one class of the largest
    Walsh order raises a ValueError that names the keys.
    """
    family = rows(n_subcarriers, n_users)
    sq = family[0] ** 2
    spread = 2 * sq * sq + np.sum(sq * family[1:] ** 2, axis=0)
    keys, counts = np.unique(np.stack([sq, spread]), axis=1, return_counts=True)
    cells = math.prod((c + 1) * (c + 2) // 2 for c in counts.tolist())
    if cells > _GRID_LIMIT:
        raise ValueError(
            f"codes.policy=fixed at params.n_subcarriers={n_subcarriers} and "
            f"params.n_users={n_users} needs a closed-form grid of {cells} cells over "
            f"{counts.size} chip classes, more than the {_GRID_LIMIT} of order {ORDER_LIMIT}"
        )
    order = np.argsort(-counts, kind="stable").tolist()
    return tuple((int(counts[i]), int(keys[0, i]), int(keys[1, i])) for i in order)


def _fixed_pe(n, p0, free, r, q, k_users, sn2, ss2) -> float:
    """Error probability of the fixed length-n family: one exact sum over the chip classes.

    The largest class's busy count runs in a loop; the cells of every
    other class are combined once, into the sums e = sum c1^2 and
    h = sum (2 c1^4 + sum_k c1^2 ck^2) over their not-busy positions and
    g = sum c1^2 over their misdetected ones, with the product weight w.
    """
    (n0, u0, h0), *rest = fixed_chip_classes(n, k_users)
    e, h, g, w = np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1)
    for size, u, spread in rest:
        # b busy with weight Binom(b; size, p_zero), l of the rest misdetected
        # with weight Binom(l; size - b, r)
        kept, hit, weight = np.array([
            (size - b, l, wb * wl)
            for b, wb in enumerate(_binomial_pmf(size, p0, free).tolist()) if wb > 0.0
            for l, wl in enumerate(_binomial_pmf(size - b, r, q).tolist()) if wl > 0.0
        ]).T
        e = (e[:, None] + u * kept).ravel()
        h = (h[:, None] + spread * kept).ravel()
        g = (g[:, None] + u * hit).ravel()
        w = (w[:, None] * weight).ravel()
    busy = _binomial_pmf(n0, p0, free)
    total = 0.0
    for b0 in np.flatnonzero(busy).tolist():
        hits = _binomial_pmf(n0 - b0, r, q)
        l0 = np.flatnonzero(hits)
        # _Q_CHUNK cells at a time, so that the temporaries stay small
        # however many cells the classes make
        per_hit = np.zeros(l0.size)
        for start in range(0, e.size, _Q_CHUNK):
            cells = slice(start, start + _Q_CHUNK)
            energy = (n0 - b0) * u0 + e[cells]
            # no chip left: the erasure value; the placeholder energy only
            # keeps the masked cell finite
            erased = energy == 0.0
            energy[erased] = 1.0
            var = (
                0.5 * ((n0 - b0) * h0 + h[cells]) / (energy * energy)
                + 0.5 * ss2 * (u0 * l0[:, None] + g[cells]) / energy
                + 0.5 * sn2
            )
            pe = np.where(erased, 0.5, q_function(1.0 / np.sqrt(var)))
            per_hit += pe @ w[cells]
        total += float(busy[b0] * (hits[l0] @ per_hit))
    return total


def average_pe(params: SystemParams, model: OccupancyModel) -> float:
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
    sn2, ss2 = params.noise_psd, params.interference_power
    if params.code_policy == "fixed":
        return _fixed_pe(n, p0, free, r, q, params.n_users, sn2, ss2)
    erased, groups = _rechoose_table(n, params.n_users, p0, free, r, q)
    total = 0.5 * erased
    for mass, fourth, cross, energy, sizes, laws in groups:
        # V_a = var_s + var_mai + var_n and g_a per order, spread over the
        # orders' laws: Q(1 / sqrt(g_a * s + V_a)) for the whole group at
        # once, in place, and a group of one law reads it without a copy
        var = fourth / (energy * energy) + 0.5 * cross / (energy * energy)
        var += 0.5 * sn2
        sums, probs = laws[0] if len(laws) == 1 else map(np.concatenate, zip(*laws))
        x = np.repeat(0.5 * ss2 / energy, sizes)
        x *= sums
        x += np.repeat(var, sizes)
        pe = q_function(np.divide(1.0, np.sqrt(x, out=x), out=x))
        weights = np.repeat(mass, sizes)
        weights *= probs
        total += float(weights @ pe)
    return total


def average_pe_enumerated(params: SystemParams, model: OccupancyModel) -> float:
    """Exact expectation by enumerating every per-subcarrier state (3^N).

    Each subcarrier is estimated-busy, misdetected, or properly free; the
    chip-level error probability of every configuration is evaluated from
    the signatures that signature_matrix lays out for it.  Small N only;
    used as the built-in cross-check for average_pe.
    """
    n = params.n_subcarriers
    terms = (params.noise_psd, params.interference_power)
    probs = (model.p_free, model.p_zero, model.p_mis)
    total = 0.0
    for states in itertools.product((0, 1, 2), repeat=n):
        w = 1.0
        for s in states:
            w *= probs[s]
        if w == 0.0:
            continue
        state = np.array(states)
        chips, _ = signature_matrix((state == 1)[np.newaxis], params.n_users, params.code_policy)
        total += w * _chip_pe(chips[0].astype(np.float64), state == 2, *terms)
    return total
