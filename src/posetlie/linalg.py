"""Exact Gauss–Jordan elimination over any field with operator arithmetic, on
sparse rows: dicts from an orderable column key to a nonzero scalar, with the
least key as pivot.  A reduced basis row is zero at every other pivot, so a
row is reduced only at the pivots it holds, in any order."""

from __future__ import annotations


def _add_multiple(row, factor, other):
    """row += factor * other, in place, dropping the entries that cancel."""
    for key, value in other.items():
        total = row[key] + factor * value if key in row else factor * value
        if total:
            row[key] = total
        else:
            del row[key]


def _reduce(row, reduced):
    """A copy of row without zeros, less its multiples of the basis rows in
    reduced (pivot -> row) at the pivots it holds."""
    row = {key: value for key, value in row.items() if value}
    for pivot in [key for key in row if key in reduced]:
        _add_multiple(row, -row[pivot], reduced[pivot])
    return row


def row_reduce(rows):
    """Reduced row-echelon basis of the span of the given rows: (basis,
    pivots), the nonzero reduced rows as new dicts and the pivot of each,
    sorted by pivot.  The input rows are not modified."""
    reduced = {}
    for row in rows:
        row = _reduce(row, reduced)
        if row:
            pivot = min(row)
            inv = row[pivot]
            row = {key: value / inv for key, value in row.items()}
            # back-substitute into earlier basis rows to keep them reduced
            for other in reduced.values():
                if pivot in other:
                    _add_multiple(other, -other[pivot], row)
            reduced[pivot] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def in_span(basis, pivots, row):
    """Whether row lies in the row space described by (basis, pivots)."""
    return not _reduce(row, dict(zip(pivots, basis)))


def rank(rows):
    return len(row_reduce(rows)[0])


def nullspace(rows, columns, one):
    """Basis of {x : A x = 0} for the matrix with the given rows, one sparse
    vector per free column key, in the order of columns."""
    basis, pivots = row_reduce(rows)
    pivot_set = set(pivots)
    return [
        {free: one, **{p: -b[free] for b, p in zip(basis, pivots) if free in b}}
        for free in columns
        if free not in pivot_set
    ]
