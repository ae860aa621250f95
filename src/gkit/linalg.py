"""Exact Gaussian elimination over a field given by element objects.

Elements must support +, -, *, ==, and .inverse(); the zero element is
passed explicitly.  Etale algebras row-reduce augmented matrices to invert
their Frobenius matrix, for their inverses and for their separability
check; the Greenberg kernel report takes the nullity of a linearized system.
"""


def row_reduce(matrix, zero):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][col] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != zero:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullity(matrix, ncols, zero):
    """The dimension of the solutions of matrix * x = 0 in ncols unknowns;
    with no rows every unknown is free."""
    return ncols - len(row_reduce(matrix, zero)[1])
