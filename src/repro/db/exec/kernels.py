"""Shared columnar kernels: one group-factorize for every executor.

:func:`factorize` turns key tuples into dense group codes for GROUP BY,
DISTINCT, multi-key join codes and descending sort ranks in
:mod:`repro.db.exec.vector`, and for the partial aggregates of
:mod:`repro.dist.plan`. Its output is byte-identical to the
``np.unique`` calls it replaced: ``np.unique(key, return_inverse=True)``
for one key, ``np.unique(np.rec.fromarrays(keys), return_inverse=True)``
for several. That structured form argsorts whole records through a
generic field-by-field compare, which is what made grouping slow.

Each key column gets order-preserving codes: ``value - min`` for
integers and for CHAR widths 1/2/4/8 viewed as big-endian unsigned
(the *dense* path, taken while the span is at most
:data:`DENSE_SPAN_FACTOR` times the row count), otherwise a per-column
``np.unique``. Columns combine in mixed radix, which preserves
lexicographic order, and the product is renumbered by ``bincount`` +
``cumsum`` or, when too wide, an int64 ``np.unique``. Float keys keep
the original call: NaN collapsing and the ``-0.0``/``0.0``
representative depend on its sort. DESIGN.md §11 has the full rule.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Largest value span, as a multiple of the row count, that is turned
#: into codes by direct indexing instead of sorting.
DENSE_SPAN_FACTOR = 2

#: dtype kinds that factorize column by column: exact equality is byte
#: equality, so any row of a group is a faithful representative.
_CODED_KINDS = frozenset("biuSU")


def factorize(
    keys: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], np.ndarray, int]:
    """Group the rows of the key columns ``keys`` (equal lengths).

    Returns ``(uniques, inverse, n_groups)``: one array per key holding
    the distinct key tuples in lexicographic order, the int64 group code
    of every row, and the number of groups.
    """
    keys = [np.ravel(k) for k in keys]
    if any(k.dtype.kind not in _CODED_KINDS for k in keys):
        return _unique_reference(keys)
    n = len(keys[0])
    if n == 0:
        return [k[:0].copy() for k in keys], np.zeros(0, dtype=np.int64), 0
    limit = DENSE_SPAN_FACTOR * n
    code, radix = _column_codes(keys[0], limit)
    for key in keys[1:]:
        col_code, col_radix = _column_codes(key, limit)
        # Densifying first keeps radix <= n, and col_radix <= max(limit, n),
        # so the product stays far inside int64.
        if radix * col_radix > limit:
            code, radix = _densify(code, radix, limit)
        code = code * col_radix + col_code
        radix *= col_radix
    inverse, n_groups = _densify(code, radix, limit)
    # Every row of a group holds the same key bytes, so any one of them
    # (here: whichever write lands last) represents it.
    rep = np.empty(n_groups, dtype=np.intp)
    rep[inverse] = np.arange(n, dtype=np.intp)
    return [k[rep] for k in keys], inverse, n_groups


def _unique_reference(keys: List[np.ndarray]):
    """The original ``np.unique`` path, kept for float and other keys."""
    if len(keys) == 1:
        uniq, inverse = np.unique(keys[0], return_inverse=True)
        return [uniq], inverse.reshape(-1), len(uniq)
    packed = np.rec.fromarrays(keys)
    uniq, inverse = np.unique(packed, return_inverse=True)
    uniques = [np.ascontiguousarray(uniq[f]) for f in uniq.dtype.names]
    return uniques, inverse.reshape(-1), len(uniq)


def _column_codes(col: np.ndarray, limit: int) -> Tuple[np.ndarray, int]:
    """Order-preserving codes for one column and their radix (codes lie
    in ``[0, radix)``; they need not all occur)."""
    values = _ordered_ints(col)
    if values is not None:
        lo, hi = int(values.min()), int(values.max())
        span = hi - lo + 1
        if span <= limit:
            if values.dtype.kind == "u" and values.dtype.itemsize == 8:
                return (values - np.uint64(lo)).astype(np.intp), span
            off = values.astype(np.intp)
            off -= lo
            return off, span
    uniq, inverse = np.unique(col, return_inverse=True)
    return inverse.reshape(-1), len(uniq)


def _ordered_ints(col: np.ndarray):
    """``col`` as integers ordered like its values, or None when the
    column has no such view (CHAR widths other than 1/2/4/8, unicode)."""
    kind = col.dtype.kind
    if kind in "biu":
        return col
    width = col.dtype.itemsize
    if kind == "S" and width in (1, 2, 4, 8):
        return col.view(f">u{width}")
    return None


def _densify(code: np.ndarray, radix: int, limit: int) -> Tuple[np.ndarray, int]:
    """Renumber ``code`` (values in ``[0, radix)``) to ``0..k-1`` in
    ascending order; returns the new codes and ``k``."""
    if radix <= limit:
        present = np.bincount(code, minlength=radix) > 0
        remap = np.cumsum(present) - 1
        return remap[code], int(remap[-1]) + 1
    uniq, inverse = np.unique(code, return_inverse=True)
    return inverse.reshape(-1), len(uniq)
