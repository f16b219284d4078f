import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsocdma import orthocodes as oc
from fsocdma.phylink import signature_matrix
from oracles import parse_matrix


def gram_oracle(entries):
    """Exact Gram via arbitrary-precision integer matmul."""
    a = np.asarray(entries, dtype=object)
    return a @ a.T


class TestWalsh:
    def test_order_one(self):
        assert oc.walsh(0).entries.tolist() == [[1]]

    def test_doubling(self):
        assert oc.walsh(1).entries.tolist() == [[1, 1], [1, -1]]

    def test_order_four(self):
        w = oc.walsh(2)
        assert w.n == 4
        assert w.gram_diag.tolist() == [4, 4, 4, 4]
        assert set(np.unique(w.entries)) == {-1, 1}

    def test_exponent_limit(self):
        with pytest.raises(oc.OrderLimitError):
            oc.walsh(oc.MAX_WALSH_EXPONENT + 1)


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
        assert np.array_equal(got.entries, oc.walsh(2).entries)

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


class TestVerify:
    def test_walsh_ok(self):
        r = oc.verify(oc.walsh(2).entries)
        assert r.is_orthogonal and r.all_nonzero

    def test_identical_rows(self):
        r = oc.verify([[1, 1], [1, 1]])
        assert not r.is_orthogonal

    def test_zero_entries(self):
        r = oc.verify([[1, 0], [0, 1]])
        assert r.is_orthogonal and not r.all_nonzero


def embed(k, busy):
    """signature_matrix of one busy mask: chips (k, N) and energies (k,)."""
    chips, energies = signature_matrix(np.asarray(busy, dtype=bool)[np.newaxis], k)
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
