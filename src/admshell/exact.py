"""Exact vector helpers on integer tuples, and the one rational solver.

Root quantities are integers read from the datum's root table; only
``solve_linear`` builds ``Fraction``s, for values that are truly rational
(fundamental-coweight coordinates, the label order's separating coweight, and
the one inverse Cartan matrix per datum behind integer coroot coordinates).
No floats anywhere, so root and coweight comparisons are exact.
"""

from fractions import Fraction


def solve_linear(cols, target):
    """Solve sum_i x_i * cols[i] == target exactly.

    cols: sequence of vectors (the columns), target: vector.
    Returns a tuple of Fractions, or None if the system is inconsistent.
    Free variables (if the columns are dependent) are set to 0.
    """
    n = len(cols)
    m = len(target)
    A = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(target[i])]
         for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        p = next((r for r in range(row, m) if A[r][col] != 0), None)
        if p is None:
            continue
        A[row], A[p] = A[p], A[row]
        pv = A[row][col]
        A[row] = [v / pv for v in A[row]]
        for r in range(m):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if A[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = A[r][n]
    # verify (guards against dependent columns hiding an inconsistency)
    for i in range(m):
        s = sum(x[j] * cols[j][i] for j in range(n))
        if s != target[i]:
            return None
    return tuple(x)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))
