"""The ``[B | Z | I]`` subquotient elimination that ``linalg._subquotient``
ran for every Z, the identity included, kept verbatim as the oracle of its
identity route.

With Z the identity (passed as None), one elimination of the n x (b + n)
matrix ``[B | I]`` runs: its pivots in the identity block are the
coordinates a greedy span accepts after B, and the rows of the reduced
identity block at those pivots are the coordinate rows ``left``.
"""

from so3alg.linalg import QMatrix, _canonical, _wrap


def bordered_subquotient(Z: QMatrix | None, B: QMatrix):
    """``subquotient``'s accepted columns of Z, annihilator and coordinate
    rows; Z None is the identity, whose coordinates are None when B is zero:
    a vector's own entries."""
    n = B.rows
    nonzero = [j for j in range(B.cols) if any(r[j] for r in B.ints)]
    if len(nonzero) < B.cols:
        B = B.columns(nonzero)
    if Z is None and not B.cols:
        return range(n), _wrap(0, n, 1, []), None
    both = B if Z is None else B.hstack(Z)
    R, pivots = both.hstack(QMatrix.identity(n)).rref()
    k = sum(1 for c in pivots if c < B.cols + (n if Z is None else Z.cols))
    nb = sum(1 for c in pivots if c < B.cols)
    E = [row[both.cols :] for row in R.ints]
    # the annihilator only faces a zero test, so its denominator is dropped
    annihilator = _wrap(n - k, n, 1, E[k:])
    return [c - B.cols for c in pivots[nb:k]], annihilator, _canonical(k - nb, n, R.den, E[nb:k])
