"""The group-factorize kernel against the ``np.unique`` calls it replaced.

``factorize`` must be byte-identical to ``np.unique(keys[0],
return_inverse=True)`` for one key and to ``np.unique`` over
``np.rec.fromarrays(keys)`` for several: unique arrays (dtype and
bytes), inverse codes and group count. The property suite draws key
columns of every kind the executors group on, with repeats, so both the
dense path and the per-column fallback are exercised and combined.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.db.exec import kernels
from repro.db.exec.kernels import DENSE_SPAN_FACTOR, factorize

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Bytes that stress CHAR ordering: NUL padding, the signed/unsigned
#: boundary at 0x80, and the extremes.
CHAR_BYTES = [0x00, 0x01, 0x41, 0x42, 0x7F, 0x80, 0xFE, 0xFF]


def reference(keys):
    """The code ``factorize`` replaced, verbatim in behaviour."""
    if len(keys) == 1:
        uniq, inverse = np.unique(keys[0], return_inverse=True)
        return [uniq], inverse, len(uniq)
    uniq, inverse = np.unique(np.rec.fromarrays(keys), return_inverse=True)
    return [np.asarray(uniq[f]) for f in uniq.dtype.names], inverse, len(uniq)


def assert_identical(keys):
    got_uniques, got_inverse, got_n = factorize(keys)
    want_uniques, want_inverse, want_n = reference(keys)
    assert got_n == want_n
    assert len(got_uniques) == len(want_uniques) == len(keys)
    for got, want in zip(got_uniques, want_uniques):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert got_inverse.dtype == np.int64 == want_inverse.dtype
    assert got_inverse.shape == (len(keys[0]),)
    assert got_inverse.tobytes() == want_inverse.tobytes()


def pooled(n, element, max_pool=6):
    """``n`` values drawn from a small pool, so groups repeat."""

    @hyp_st.composite
    def draw_values(draw):
        pool = draw(hyp_st.lists(element, min_size=1, max_size=max_pool))
        picks = draw(
            hyp_st.lists(
                hyp_st.integers(0, len(pool) - 1), min_size=n, max_size=n
            )
        )
        return [pool[i] for i in picks]

    return draw_values()


def char_values(width):
    return hyp_st.lists(
        hyp_st.sampled_from(CHAR_BYTES), min_size=0, max_size=width
    ).map(bytes)


def char_column(n, width):
    return pooled(n, char_values(width)).map(
        lambda vals: np.array(vals, dtype=f"S{width}")
    )


def char_column_narrow(n, width):
    """CHAR values sharing a prefix, so the span stays dense."""

    @hyp_st.composite
    def draw_column(draw):
        prefix = bytes(
            draw(
                hyp_st.lists(
                    hyp_st.sampled_from(CHAR_BYTES),
                    min_size=width - 1,
                    max_size=width - 1,
                )
            )
        )
        last = draw(pooled(n, hyp_st.integers(0, 8)))
        return np.array([prefix + bytes([b]) for b in last], dtype=f"S{width}")

    return draw_column()


def int_column(n, dtype, lo, hi):
    element = hyp_st.one_of(hyp_st.integers(-20, 20), hyp_st.integers(lo, hi))
    return pooled(n, element).map(lambda vals: np.array(vals, dtype=dtype))


def float_column(n):
    element = hyp_st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0, np.inf, np.nan])
    return pooled(n, element).map(lambda vals: np.array(vals, dtype=np.float64))


def column(n, with_float=True):
    options = [
        char_column(n, 1),
        char_column(n, 3),
        char_column(n, 8),
        char_column_narrow(n, 2),
        char_column_narrow(n, 4),
        char_column_narrow(n, 8),
        int_column(n, np.int32, INT32_MIN, INT32_MAX),
        int_column(n, np.int64, INT64_MIN, INT64_MAX),
        pooled(n, hyp_st.booleans()).map(lambda vals: np.array(vals, dtype=bool)),
    ]
    if with_float:
        options.append(float_column(n))
    return hyp_st.one_of(options)


@hyp_st.composite
def key_sets(draw, max_keys=4, with_float=True):
    n = draw(hyp_st.integers(0, 40))
    nkeys = draw(hyp_st.integers(1, max_keys))
    return [draw(column(n, with_float)) for _ in range(nkeys)]


@settings(max_examples=300, deadline=None)
@given(key_sets())
def test_factorize_matches_np_unique(keys):
    assert_identical(keys)


@pytest.mark.parametrize("nkeys", [1, 2, 3, 4])
def test_zero_rows(nkeys):
    dtypes = ["S1", "S3", np.int32, np.int64][:nkeys]
    keys = [np.zeros(0, dtype=d) for d in dtypes]
    assert_identical(keys)
    assert factorize(keys)[2] == 0


@pytest.mark.parametrize("width", [2, 4, 8])
@pytest.mark.parametrize("varying", ["front", "back"])
def test_multibyte_char_order(width, varying):
    """Two varying bytes of a wide CHAR must order by the first of them.

    Enough rows that either byte order of the integer view would span
    within the dense limit, so a view with the wrong byte order would
    take the dense path and sort by the wrong byte.
    """
    n = 400
    rng = np.random.default_rng(width)
    pair = rng.integers(0, 2, (n, 2), dtype=np.uint8)
    fill = np.full((n, width - 2), 0x80, dtype=np.uint8)
    parts = (pair, fill) if varying == "front" else (fill, pair)
    keys = [np.ascontiguousarray(np.hstack(parts)).view(f"S{width}").reshape(-1)]
    assert_identical(keys)
    assert_identical(keys + [rng.integers(-3, 3, n).astype(np.int32)])
    assert_identical([rng.integers(-3, 3, n).astype(np.int32)] + keys)


def test_negative_int32():
    keys = [np.array([-5, 3, -5, INT32_MIN, INT32_MAX, 3, -1], dtype=np.int32)]
    assert_identical(keys)
    assert_identical(keys + [np.array(list(b"abababa"), dtype=np.uint8)])


class _UniqueSpy:
    """Records the dtype of every ``np.unique`` call."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = np.unique

        def spy(ar, *args, **kwargs):
            self.calls.append(np.asarray(ar).dtype)
            return original(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_int64_span_around_dense_limit(monkeypatch, delta):
    """Spans up to ``DENSE_SPAN_FACTOR * n`` index a table; one more
    falls back to sorting. Both sides agree with the reference."""
    n = 50
    span = DENSE_SPAN_FACTOR * n + delta
    rng = np.random.default_rng(span)
    base = -(2**40)
    values = base + rng.integers(0, span, n)
    values[:2] = (base, base + span - 1)  # pin the exact span
    values = values.astype(np.int64)
    spy = _UniqueSpy(monkeypatch)
    got = factorize([values])
    assert bool(spy.calls) == (delta > 0)
    monkeypatch.undo()
    assert_identical([values])
    assert got[2] == len(np.unique(values))


def test_q1_shaped_char_keys_never_sort(monkeypatch):
    rng = np.random.default_rng(1)
    flags = rng.choice(np.array([b"A", b"N", b"R"], dtype="S1"), 1000)
    status = rng.choice(np.array([b"F", b"O"], dtype="S1"), 1000)
    spy = _UniqueSpy(monkeypatch)
    uniques, _, n_groups = factorize([flags, status])
    assert spy.calls == []
    monkeypatch.undo()
    assert n_groups == 6
    assert uniques[0].tolist() == [b"A", b"A", b"N", b"N", b"R", b"R"]
    assert_identical([flags, status])


def test_wide_product_is_densified_by_int64_unique(monkeypatch):
    """Three dense keys whose radix product exceeds the dense limit are
    combined through an int64 ``np.unique``, not a structured one."""
    rng = np.random.default_rng(7)
    n = 64
    keys = [
        rng.integers(0, n, n).astype(np.int64),
        rng.integers(0, 8, n).astype(np.int32),
        rng.choice(np.array([b"x", b"y", b"z"], dtype="S1"), n),
    ]
    spy = _UniqueSpy(monkeypatch)
    factorize(keys)
    assert spy.calls and all(d == np.int64 for d in spy.calls)
    monkeypatch.undo()
    assert_identical(keys)


def test_wide_keys_do_not_overflow_the_radix():
    """Five keys with n/2 distinct values each: their radix product
    (~(n/2)**5) exceeds int64 unless the codes are densified between keys."""
    n = 60_000
    rng = np.random.default_rng(3)
    keys = [rng.integers(INT64_MIN, INT64_MAX, n, dtype=np.int64) for _ in range(5)]
    for key in keys:
        key[n // 2 :] = key[: n - n // 2]  # every tuple occurs twice
    assert_identical(keys)


def test_float_keys_keep_the_reference_path(monkeypatch):
    """Float keys cannot be factorized column by column (NaN collapsing
    and the ``-0.0``/``0.0`` representative depend on the sort), so they
    keep the original ``np.unique`` call — structured for several keys."""
    floats = np.array([0.0, -0.0, 1.5, np.nan, -0.0, 0.0, np.nan, 1.5])
    ints = np.array([1, 1, 2, 3, 1, 1, 3, 2], dtype=np.int32)
    spy = _UniqueSpy(monkeypatch)
    factorize([ints, floats])
    assert len(spy.calls) == 1 and spy.calls[0].names is not None
    monkeypatch.undo()
    assert_identical([floats])
    assert_identical([ints, floats])
    assert_identical([floats, ints])


def test_inputs_are_not_modified():
    keys = [
        np.array([3, 1, 3], dtype=np.int64),
        np.array([b"b", b"a", b"b"], dtype="S1"),
    ]
    before = [k.copy() for k in keys]
    factorize(keys)
    for k, b in zip(keys, before):
        assert k.tobytes() == b.tobytes()


def test_strided_char_view():
    """Dist fragments group on CHAR columns viewed out of a row image."""
    frame = np.frombuffer(b"AxByAzCw" * 3, dtype="S2")
    keys = [frame.view("S1")[::2], frame.view("S1")[1::2]]
    assert not keys[0].flags.c_contiguous
    assert_identical(keys)


@settings(max_examples=200, deadline=None)
@given(key_sets(max_keys=3, with_float=False))
def test_group_tuples_match_structured_items(keys):
    """Dist partials key groups by plain Python tuples; building them
    from the kernel's arrays gives what ``record.item()`` gave."""
    uniques, _, _ = factorize(keys)
    tuples = list(zip(*(u.tolist() for u in uniques)))
    if len(keys) == 1:
        want = [(k.item(),) for k in np.unique(keys[0])]
    else:
        want = [row.item() for row in np.unique(np.rec.fromarrays(keys))]
    assert tuples == want
    assert all(type(a) is type(b) for t, w in zip(tuples, want) for a, b in zip(t, w))


def test_dense_limit_scales_with_rows():
    """A 2-row input with a wide CHAR(2) span sorts instead of
    allocating a table sized by the value range."""
    keys = [np.array([b"\x00\x00", b"\xff\xff"], dtype="S2")]
    _, radix = kernels._column_codes(keys[0], DENSE_SPAN_FACTOR * 2)
    assert radix == 2
    assert_identical(keys)
