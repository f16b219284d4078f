"""Real-valued multi-level orthogonal spreading codes.

Orthogonal bases of the primes 2 (the Walsh kernel), 3, 5 and 7 compose,
as Kronecker products, to every order whose prime factors lie in that
table.  The library reads a family as its first k rows, composed row by
row; only the matrix export and the checks form whole matrices.  All
arithmetic is exact integer arithmetic with an explicit 64-bit overflow
check -- orthogonality is never a floating point statement here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

# Hard limit on matrix order (walsh exponent 12 == order 4096).
MAX_WALSH_EXPONENT = 12
ORDER_LIMIT = 2 ** MAX_WALSH_EXPONENT

SUPPORTED_PRIMES = (2, 3, 5, 7)


def _circulant_rows(first: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(first)
    return tuple(tuple(first[(j - i) % n] for j in range(n)) for i in range(n))

# Orthogonal bases of prime order, verified when first read.  The
# order-5 and order-7 matrices are circulants of a first row whose cyclic
# autocorrelation vanishes at every nonzero lag (found by integer search
# over entries in {+-1,..,+-3}); order 3 needs explicit signs.
_PRIME_BASES = {
    2: ((1, 1), (1, -1)),
    3: (
        (1, 2, 2),
        (2, 1, -2),
        (2, -2, 1),
    ),
    5: _circulant_rows((2, -3, 2, 2, 2)),
    7: _circulant_rows((1, -2, -2, -1, 1, 1, -2)),
}


class UnsupportedOrderError(ValueError):
    """Requested order has a prime factor outside the supported table."""

    def __init__(self, factor: int, n: int | None = None):
        self.factor = factor
        where = f" of n={n}" if n is not None else ""
        super().__init__(
            f"prime factor {factor}{where} is not in the supported table "
            f"{SUPPORTED_PRIMES}"
        )


class OrderLimitError(ValueError):
    """Requested order exceeds the configured maximum."""


class EntryOverflowError(OverflowError):
    """Exact integer entry or Gram value does not fit in signed 64 bits."""


@dataclass(frozen=True)
class CodeMatrix:
    """Square integer matrix with pairwise orthogonal, all-nonzero rows.

    ``gram_diag[i]`` caches the exact squared norm of row i.
    """

    n: int
    entries: np.ndarray  # (n, n) int64, read-only
    gram_diag: np.ndarray  # (n,) int64, read-only


@dataclass(frozen=True)
class GramReport:
    """Exact Gram matrix of a candidate code plus the two orthogonality flags."""

    gram: np.ndarray  # (n, n) int64
    is_orthogonal: bool  # all off-diagonal entries zero
    all_nonzero: bool  # no zero entries in the candidate itself


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _exact_gram(entries: np.ndarray) -> np.ndarray:
    """C @ C.T in exact integer arithmetic, raising on 64-bit overflow."""
    n = entries.shape[0]
    bound = int(np.max(np.abs(entries))) if entries.size else 0
    if bound * bound * max(n, 1) <= INT64_MAX:
        # products cannot overflow, use fast int64 matmul
        return entries @ entries.T
    gram_obj = entries.astype(object) @ entries.astype(object).T
    if int(np.max(np.abs(gram_obj))) > INT64_MAX:
        raise EntryOverflowError("Gram matrix exceeds signed 64-bit range")
    return gram_obj.astype(np.int64)


def verify(candidate) -> GramReport:
    """Compute the exact Gram matrix of a square integer matrix.

    Diagnostic only: never raises on a non-orthogonal input, the flags
    report what was found.
    """
    entries = np.asarray(candidate, dtype=np.int64)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    gram = _exact_gram(entries)
    off = gram[~np.eye(entries.shape[0], dtype=bool)]
    is_orth = bool(off.size == 0 or not np.any(off))
    all_nz = bool(np.all(entries != 0))
    return GramReport(gram=_freeze(gram), is_orthogonal=is_orth, all_nonzero=all_nz)


def from_entries(candidate) -> CodeMatrix:
    """Wrap a matrix as a CodeMatrix, enforcing every invariant."""
    entries = np.array(candidate, dtype=np.int64)
    report = verify(entries)
    if not report.all_nonzero:
        raise ValueError("code matrix entries must all be nonzero")
    if not report.is_orthogonal:
        raise ValueError("rows are not pairwise orthogonal")
    diag = np.diagonal(report.gram).copy()
    return CodeMatrix(
        n=entries.shape[0], entries=_freeze(entries), gram_diag=_freeze(diag)
    )


@lru_cache(maxsize=len(SUPPORTED_PRIMES))
def prime_base(p: int) -> CodeMatrix:
    """Orthogonal base matrix of prime order p from the supported table.

    The entry is verified on its first read, so a corrupted table fails
    loudly; __wrapped__ re-reads and re-verifies it.
    """
    if p not in _PRIME_BASES:
        raise UnsupportedOrderError(p)
    return from_entries(_PRIME_BASES[p])


def compose(outer: CodeMatrix, inner: CodeMatrix) -> CodeMatrix:
    """Block composition: the (i, j) block of the result is outer[i][j] * inner.

    This is the Kronecker product outer (x) inner; the Gram matrix of the
    result is the Kronecker product of the input Gram matrices.
    """
    n = outer.n * inner.n
    if n > ORDER_LIMIT:
        raise OrderLimitError(f"composed order {n} exceeds the limit {ORDER_LIMIT}")
    bound_out = int(np.max(np.abs(outer.entries)))
    bound_in = int(np.max(np.abs(inner.entries)))
    if bound_out * bound_in > INT64_MAX:
        raise EntryOverflowError("composed entries exceed signed 64-bit range")
    entries = np.kron(outer.entries, inner.entries)
    # Gram diagonal composes as the Kronecker product of the diagonals.
    diag_out = outer.gram_diag.astype(object)
    diag_in = inner.gram_diag.astype(object)
    diag = np.kron(diag_out, diag_in)
    if int(max(diag)) > INT64_MAX:
        raise EntryOverflowError("composed Gram diagonal exceeds signed 64-bit range")
    return CodeMatrix(
        n=n, entries=_freeze(entries), gram_diag=_freeze(diag.astype(np.int64))
    )


def _factor(n: int) -> tuple[list[int], int]:
    """n's prime factors from the supported table, ascending, and the rest of n."""
    factors = []
    for p in SUPPORTED_PRIMES:
        while n % p == 0:
            factors.append(p)
            n //= p
    return factors, n


def _row_factors(n: int, k: int) -> list[int]:
    """n's prime factors, ascending, after checking that k rows of order n exist."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > ORDER_LIMIT:
        raise OrderLimitError(f"order {n} exceeds the limit {ORDER_LIMIT}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n rows, got k={k} of order {n}")
    factors, rest = _factor(n)
    if rest != 1:  # name the smallest factor outside the table
        raise UnsupportedOrderError(next(q for q in range(2, rest + 1) if rest % q == 0), n=n)
    return factors


@lru_cache(maxsize=128)  # its callers cache their own results; the bound caps memory
def rows(n: int, k: int) -> np.ndarray:
    """First k rows of the order-n family, as a read-only (k, n) int64 array.

    The family is the Kronecker product of the prime bases of n's factors,
    the largest outermost.  Row i of A (x) B is A[i // n_B] (x) B[i % n_B],
    so row i is one row of each base, picked by the mixed-radix digits of
    i.  Entries and row norms stay far inside 64 bits below ORDER_LIMIT.
    """
    factors = _row_factors(n, k)
    digits = np.arange(k)
    out = np.ones((k, 1), dtype=np.int64)
    for p in factors:
        base = prime_base(p).entries[digits % p]
        out = (base[:, :, np.newaxis] * out[:, np.newaxis, :]).reshape(k, -1)
        digits //= p
    return _freeze(out)


@lru_cache(maxsize=len(SUPPORTED_PRIMES))
def _base_moments(p: int) -> tuple[tuple[int, ...], int]:
    """Prime base p's sums of (first row * row d)^2 for every row d, and its first row's energy."""
    base = prime_base(p).entries.tolist()
    products = tuple(sum((a * b) ** 2 for a, b in zip(base[0], row)) for row in base)
    return products, sum(a * a for a in base[0])


def first_row_moments(n: int, k: int) -> tuple[int, int, int]:
    """(sum c1^4, sum_{i>=2} sum_j (c1_j ci_j)^2, sum c1^2) over the order-n family's first k rows.

    Every sum over a Kronecker product's entries is the product of the
    factors' sums, and row i is one row of each prime base, picked by the
    same mixed-radix digits as in rows: so sum_j (c1_j ci_j)^2 is the
    product over n's factors of the base's sum of (first row * row digit)^2,
    and row 0 gives sum c1^4.  Exact integers, from the bases alone.
    """
    factors = _row_factors(n, k)
    moments = [_base_moments(p) for p in factors]
    terms = []
    for i in range(k):
        term, digits = 1, i
        for (products, _), p in zip(moments, factors):
            term *= products[digits % p]
            digits //= p
        terms.append(term)
    energy = math.prod(first_energy for _, first_energy in moments)
    return terms[0], sum(terms[1:]), energy


@lru_cache(maxsize=1024)
def fixed_chip_classes(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(positions, c1^2, 2 c1^4 + sum_{i>=2} c1^2 ci^2) per chip class of the order-n family.

    A class gathers the positions of the first k rows on which both
    quantities are equal; the largest class comes first.
    """
    family = rows(n, k)
    sq = family[0] ** 2
    spread = 2 * sq * sq + np.sum(sq * family[1:] ** 2, axis=0)
    keys, counts = np.unique(np.stack([sq, spread]), axis=1, return_counts=True)
    order = np.argsort(-counts, kind="stable").tolist()
    return tuple((int(counts[i]), int(keys[0, i]), int(keys[1, i])) for i in order)


def build(n: int) -> CodeMatrix:
    """The whole order-n family and its Gram diagonal (for export and checks)."""
    entries = rows(n, n)
    return CodeMatrix(
        n=n, entries=entries, gram_diag=_freeze(np.einsum("ij,ij->i", entries, entries))
    )


def is_supported_order(n: int) -> bool:
    return 1 <= n <= ORDER_LIMIT and _factor(n)[1] == 1


def largest_supported_order(n: int) -> int:
    """Largest supported order <= n (1 for any n >= 1, 0 for n <= 0)."""
    m = min(n, ORDER_LIMIT)
    while m > 0 and not is_supported_order(m):
        m -= 1
    return max(m, 0)


def supported_orders(limit: int) -> list[int]:
    return [n for n in range(1, limit + 1) if is_supported_order(n)]


def format_matrix(code: CodeMatrix) -> str:
    """Plain-text export: first line n=<order>, then space-separated rows."""
    lines = [f"n={code.n}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in code.entries)
    return "\n".join(lines) + "\n"

