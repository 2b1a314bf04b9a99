"""Exact Gaussian elimination over any field with operator arithmetic; an
update by a pivot row skips the entries where that row is zero."""

from __future__ import annotations


def row_reduce(rows):
    """Reduced row-echelon basis of the span of the given vectors.

    Returns (basis, pivots): the nonzero reduced rows and the pivot column
    of each.  The input rows are not modified.
    """
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        for b, p in zip(basis, pivots):
            if row[p]:
                factor = row[p]
                row = [rv - factor * bv if bv else rv for rv, bv in zip(row, b)]
        pivot = next((i for i, v in enumerate(row) if v), None)
        if pivot is None:
            continue
        inv = row[pivot]
        row = [v / inv if v else v for v in row]
        # back-substitute into earlier basis rows to keep them reduced
        for k, (b, p) in enumerate(zip(basis, pivots)):
            if b[pivot]:
                factor = b[pivot]
                basis[k] = [bv - factor * rv if rv else bv for bv, rv in zip(b, row)]
        basis.append(row)
        pivots.append(pivot)
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return [basis[k] for k in order], [pivots[k] for k in order]


def in_span(basis, pivots, vector):
    """Whether vector lies in the row space described by (basis, pivots)."""
    row = list(vector)
    for b, p in zip(basis, pivots):
        if row[p]:
            factor = row[p]
            row = [rv - factor * bv if bv else rv for rv, bv in zip(row, b)]
    return not any(row)


def rank(rows):
    basis, _ = row_reduce(rows)
    return len(basis)


def nullspace(rows, ncols, one):
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    basis, pivots = row_reduce(rows)
    zero = one - one
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for b, p in zip(basis, pivots):
            vec[p] = -b[f]
        out.append(vec)
    return out
