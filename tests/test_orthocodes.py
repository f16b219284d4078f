import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsocdma import montecarlo as mc
from fsocdma import orthocodes as oc
from fsocdma.ber_analysis import average_pe
from fsocdma.phylink import SystemParams, signature_matrix
from fsocdma.sensing import DetectorConfig, OccupancyModel
from oracles import kron_family, parse_matrix


def gram_oracle(entries):
    """Exact Gram via arbitrary-precision integer matmul."""
    a = np.asarray(entries, dtype=object)
    return a @ a.T


class TestWalsh:
    def test_order_one(self):
        assert oc.build(2**0).entries.tolist() == [[1]]

    def test_doubling(self):
        assert oc.build(2**1).entries.tolist() == [[1, 1], [1, -1]]

    def test_order_four(self):
        w = oc.build(2**2)
        assert w.n == 4
        assert w.gram_diag.tolist() == [4, 4, 4, 4]
        assert set(np.unique(w.entries)) == {-1, 1}

    def test_exponent_limit(self):
        with pytest.raises(oc.OrderLimitError):
            oc.build(2 ** (oc.MAX_WALSH_EXPONENT + 1))


class TestPrimeBases:
    def test_p2_is_walsh(self):
        assert oc.prime_base(2).entries.tolist() == [[1, 1], [1, -1]]

    def test_p3_matrix(self):
        c = oc.prime_base(3)
        assert c.entries.tolist() == [[1, 2, 2], [2, 1, -2], [2, -2, 1]]
        assert c.gram_diag.tolist() == [9, 9, 9]
        gram = gram_oracle(c.entries)
        assert np.array_equal(gram, np.diag([9, 9, 9]).astype(object))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_odd_primes_orthogonal(self, p):
        c = oc.prime_base(p)
        gram = gram_oracle(c.entries)
        off = gram[~np.eye(p, dtype=bool)]
        assert all(v == 0 for v in off)
        assert np.all(c.entries != 0)

    def test_unsupported_prime(self):
        with pytest.raises(oc.UnsupportedOrderError, match="11"):
            oc.prime_base(11)


class TestCompose:
    def test_c2_c2_is_walsh4(self):
        got = oc.compose(oc.prime_base(2), oc.prime_base(2))
        assert np.array_equal(got.entries, oc.build(2**2).entries)

    def test_c2_outer_c3_inner(self):
        got = oc.compose(oc.prime_base(2), oc.prime_base(3))
        assert got.n == 6
        assert got.gram_diag.tolist() == [18] * 6
        assert set(np.unique(np.abs(got.entries))) <= {1, 2}
        gram = gram_oracle(got.entries)
        assert np.array_equal(gram, np.diag([18] * 6).astype(object))

    def test_c3_outer_c2_inner(self):
        got = oc.compose(oc.prime_base(3), oc.prime_base(2))
        assert got.gram_diag.tolist() == [18] * 6
        gram = gram_oracle(got.entries)
        assert all(v == 0 for v in gram[~np.eye(6, dtype=bool)])

    def test_block_pattern_with_c2_outer(self):
        inner = oc.prime_base(3)
        got = oc.compose(oc.prime_base(2), inner)
        k = inner.n
        assert np.array_equal(got.entries[:k, :k], inner.entries)
        assert np.array_equal(got.entries[:k, k:], inner.entries)
        assert np.array_equal(got.entries[k:, :k], inner.entries)
        assert np.array_equal(got.entries[k:, k:], -inner.entries)

    def test_composed_gram_overflow(self):
        # largest magnitude a valid 2x2 can carry; the composed Gram
        # diagonal (2b^2)^2 then exceeds 64 bits
        big = (1 << 31) - 1
        huge = oc.from_entries([[big, big], [big, -big]])
        with pytest.raises(oc.EntryOverflowError):
            oc.compose(huge, huge)

    def test_gram_overflow_at_construction(self):
        big = 1 << 33
        with pytest.raises(oc.EntryOverflowError):
            oc.from_entries([[big, big], [big, -big]])

    def test_entry_bound_rejects_a_gram_that_would_fit(self):
        # orthogonal, and its Gram diag(b^2 + 1) fits int64, but max|c|^2 * n
        # does not: the rule reads the entries, never the Gram
        b = 2_500_000_000
        assert b * b + 1 <= oc.INT64_MAX < b * b * 2
        with pytest.raises(oc.EntryOverflowError):
            oc.verify([[b, 1], [-1, b]])
        # |int64 min| wraps to itself under np.abs, so the bound reads max and min
        with pytest.raises(oc.EntryOverflowError):
            oc.verify([[np.iinfo(np.int64).min, 1], [1, 1]])


BASE_PRIMES = [2, 3, 5, 7]


@settings(max_examples=16, deadline=None)
@given(
    pa=st.sampled_from(BASE_PRIMES),
    pb=st.sampled_from(BASE_PRIMES),
)
def test_gram_kronecker_law(pa, pb):
    a, b = oc.prime_base(pa), oc.prime_base(pb)
    composed = oc.compose(a, b)
    got = gram_oracle(composed.entries)
    want = np.kron(gram_oracle(a.entries), gram_oracle(b.entries))
    assert np.array_equal(got, want)


class TestBuild:
    def test_order_one(self):
        assert oc.build(1).entries.tolist() == [[1]]

    def test_order_twelve(self):
        c = oc.build(12)
        gram = gram_oracle(c.entries)
        assert all(v == 0 for v in gram[~np.eye(12, dtype=bool)])
        assert all(v > 0 for v in np.diagonal(gram))
        assert np.all(c.entries != 0)

    def test_unsupported_factor(self):
        with pytest.raises(oc.UnsupportedOrderError, match="11"):
            oc.build(22)

    def test_deterministic(self):
        a, b = oc.build(18), oc.build(18)
        assert np.array_equal(a.entries, b.entries)
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_all_supported_up_to_36(self):
        for n in oc.supported_orders(36):
            c = oc.build(n)
            report = oc.verify(c.entries)
            assert report.is_orthogonal and report.all_nonzero, n
            assert np.array_equal(np.diagonal(report.gram), c.gram_diag)

    def test_largest_supported_order(self):
        assert oc.largest_supported_order(31) == 30
        assert oc.largest_supported_order(26) == 25
        assert oc.largest_supported_order(11) == 10
        assert oc.largest_supported_order(1) == 1
        assert oc.largest_supported_order(0) == 0


class TestRows:
    """rows(n, k) and build(n) against the Kronecker chain they replace."""

    @pytest.mark.parametrize("n", oc.supported_orders(512))
    def test_first_rows_up_to_512(self, n):
        entries, _ = kron_family(n)
        for k in range(1, min(n, 8) + 1):
            assert np.array_equal(oc.rows(n, k), entries[:k]), (n, k)

    @pytest.mark.parametrize("n", oc.supported_orders(64))
    def test_whole_family_up_to_64(self, n):
        entries, gram_diag = kron_family(n)
        code = oc.build(n)
        assert code.n == n
        assert np.array_equal(code.entries, entries)
        assert np.array_equal(code.gram_diag, gram_diag)

    @pytest.mark.parametrize("n", [729, 1000, 2187, 2401, 3125, 4096])
    def test_first_rows_of_large_orders(self, n):
        # int16 holds every entry of these orders (at most 3^5) in a quarter
        # of the memory of the whole int64 oracle matrix
        entries, _ = kron_family(n, dtype=np.int16)
        for k in range(1, 9):
            assert np.array_equal(oc.rows(n, k), entries[:k]), (n, k)

    def test_read_only(self):
        with pytest.raises(ValueError):
            oc.rows(12, 2)[0, 0] = 5

    @pytest.mark.parametrize("k", [0, 13])
    def test_row_count_outside_the_order(self, k):
        with pytest.raises(ValueError, match="k="):
            oc.rows(12, k)


def test_first_row_moments_match_rows():
    # the per-prime products against the sums over the composed rows, exactly
    mismatches = []
    for n in oc.supported_orders(oc.ORDER_LIMIT):
        for k in range(1, min(n, 8) + 1):
            family = oc.rows(n, k)
            c1 = family[0]
            want = (int(np.sum(c1**4)), int(np.sum((c1 * family[1:]) ** 2)), int(np.sum(c1**2)))
            got = oc.first_row_moments(n, k)
            if got != want or not all(type(v) is int for v in got):
                mismatches.append((n, k, got, want))
    assert mismatches == []


@pytest.mark.parametrize("n,k", [(0, 1), (12, 13), (22, 1), (8192, 1)])
def test_first_row_moments_reject_what_rows_rejects(n, k):
    with pytest.raises(ValueError) as moments:
        oc.first_row_moments(n, k)
    with pytest.raises(ValueError) as from_rows:
        oc.rows(n, k)
    assert type(moments.value) is type(from_rows.value)
    assert str(moments.value) == str(from_rows.value)


@pytest.mark.parametrize("n", [16, 24, 36, 48])
def test_fixed_chip_classes_partition_the_positions(n):
    # every position lies in the one class of its (c1^2, 2 c1^4 + sum_i c1^2 ci^2),
    # counted here position by position from the rows; largest class first
    for k in range(2, 9):
        family = oc.rows(n, k).tolist()
        want = {}
        for j in range(n):
            sq = family[0][j] ** 2
            key = (sq, 2 * sq * sq + sum(sq * row[j] ** 2 for row in family[1:]))
            want[key] = want.get(key, 0) + 1
        classes = oc.fixed_chip_classes(n, k)
        counts = [count for count, _, _ in classes]
        assert sum(counts) == n
        assert {(sq, spread): count for count, sq, spread in classes} == want
        assert len(classes) == len(want)
        assert counts == sorted(counts, reverse=True)
        assert all(type(v) is int for cls in classes for v in cls)


class TestVerify:
    def test_walsh_ok(self):
        r = oc.verify(oc.build(2**2).entries)
        assert r.is_orthogonal and r.all_nonzero

    def test_identical_rows(self):
        r = oc.verify([[1, 1], [1, 1]])
        assert not r.is_orthogonal

    def test_zero_entries(self):
        r = oc.verify([[1, 0], [0, 1]])
        assert r.is_orthogonal and not r.all_nonzero


def embed(k, busy):
    """signature_matrix of one busy mask: chips (k, N) and energies (k,)."""
    chips, energies = signature_matrix(np.asarray(busy, dtype=bool)[np.newaxis], k, "rechoose")
    return chips[0], energies[0]


class TestEmbed:
    """A family's rows laid out over the free subcarriers of one mask."""

    def test_basic(self):
        chips, energies = embed(2, [True, False, False, True])
        assert chips.tolist() == [[0, 1, 1, 0], [0, 1, -1, 0]]
        assert energies.tolist() == [2, 2]

    def test_all_free(self):
        chips, energies = embed(1, [False, False, False])
        assert chips.tolist() == [[1, 2, 2]]
        assert energies.tolist() == [9]

    def test_zero_exactly_off_free_mask(self):
        busy = np.array([True, False, True, False, False])
        chips, _ = embed(3, busy)
        assert np.array_equal(chips != 0, np.broadcast_to(~busy, chips.shape))
        assert int(np.count_nonzero(chips[0])) == 3


@settings(max_examples=30, deadline=None)
@given(
    n_free=st.sampled_from([2, 3, 4, 5, 6, 8, 9]),
    data=st.data(),
)
def test_embedded_signatures_stay_orthogonal(n_free, data):
    total = data.draw(st.integers(min_value=n_free, max_value=n_free + 6))
    free_positions = data.draw(
        st.sets(st.integers(0, total - 1), min_size=n_free, max_size=n_free)
    )
    busy = np.ones(total, dtype=bool)
    busy[sorted(free_positions)] = False
    chips, _ = embed(min(n_free, 4), busy)
    gram = chips.astype(object) @ chips.astype(object).T
    assert np.count_nonzero(gram - np.diag(np.diagonal(gram))) == 0


def test_format_roundtrip():
    c = oc.build(6)
    text = oc.format_matrix(c)
    assert text.splitlines()[0] == "n=6"
    back = parse_matrix(text)
    assert np.array_equal(back, c.entries)


def test_library_reads_families_by_rows_only(monkeypatch):
    # whole matrices are for the matrix export and the selftest; the closed
    # form and the simulator read the first K rows, at any order
    def whole_matrix(n):
        raise AssertionError(f"the library built the whole order-{n} matrix")

    build = oc.build
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fsocdma"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is build:
                monkeypatch.setattr(module, attr, whole_matrix)
            elif hasattr(value, "cache_clear"):
                value.cache_clear()  # so that no family is served from an earlier test
    model = OccupancyModel.from_fused(0.2, qd=0.95, qfa=0.05)
    for n, policy in ((48, "rechoose"), (16, "fixed")):
        params = SystemParams(n_subcarriers=n, n_users=4, pr_h1=0.2, code_policy=policy)
        assert 0.0 < average_pe(params, model) < 0.5
    for policy in ("rechoose", "fixed"):
        cfg = mc.RunConfig(
            params=SystemParams(n_subcarriers=32, n_users=4, pr_h1=0.2, code_policy=policy),
            detector=DetectorConfig(samples=320, mean_snr_db=27.35),
            snr_grid_db=(10.0,), trials_min=90, max_trials=900,
        )
        point = mc.estimate_ber(cfg, 10.0, 0)
        assert point.trials == 900
