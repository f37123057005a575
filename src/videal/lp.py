"""Exact-rational simplex for small linear programs.

Serves ``filtrations.newton_member`` only: one Newton-polyhedron
membership query with a rational convex-combination certificate.
(Integral closure tests membership by integer facet inequalities.)

Solves  maximize c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the
slack basis is feasible and no phase-one is needed.  All arithmetic is
over Fraction; Bland's rule guards against cycling.  Problem sizes here
are tiny (rows = number of ring variables), so a dense tableau is fine.
"""

from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .errors import InternalError

ZERO = Fraction(0)


def maximize(
    a_rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
    c: Sequence[Rational],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Returns (optimum, primal solution x, dual values y).

    Entries may be ints or Fractions; each is converted to Fraction once,
    when the tableau is built.

    The duals are the shadow prices of the <= constraints; at optimality
    they satisfy y >= 0, y.A >= c componentwise, and y.b = optimum.
    """
    m = len(a_rows)
    n = len(c)
    if any(len(row) != n for row in a_rows) or len(b) != m:
        raise InternalError("inconsistent LP dimensions")
    if any(v < 0 for v in b):
        raise InternalError("this solver needs b >= 0 (slack basis start)")

    # Columns: 0..n-1 structural, n..n+m-1 slack; rows carry b in the last slot.
    tableau = [
        [Fraction(v) for v in row]
        + [Fraction(1) if i == j else ZERO for j in range(m)]
        + [Fraction(b[i])]
        for i, row in enumerate(a_rows)
    ]
    # Objective row holds reduced costs; entry > 0 means improving.
    obj = [Fraction(v) for v in c] + [ZERO] * m + [ZERO]
    basis = list(range(n, n + m))
    total = n + m

    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                # Bland: smallest ratio, ties by smallest basis variable.
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InternalError("LP is unbounded; malformed membership query")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            for j in range(total + 1):
                pivot_row[j] /= pivot
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                row = tableau[i]
                for j in range(total + 1):
                    row[j] -= factor * pivot_row[j]
        if obj[enter] != 0:
            factor = obj[enter]
            for j in range(total + 1):
                obj[j] -= factor * pivot_row[j]
        basis[leave] = enter

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
    optimum = -obj[total]
    duals = [-obj[n + i] for i in range(m)]
    return optimum, x, duals
