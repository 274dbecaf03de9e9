"""Exact rational answers for one- and two-step linear GMM.

Every float is a rational number, and the one- and two-step estimates are
rational functions of a system's arrays, so ``fractions.Fraction`` gives
their exact value. The oracle takes the arrays a system stores (h, G_obs and
the weight factors Z_obs, H) as plain floats and imports nothing from
``gmmdc``: it shares no code with the kernel it checks.

    theta(W) = -(G_n' W^-1 G_n)^-1 G_n' W^-1 h_n

with W the identity or the data-average weight mean_i Z_i' H Z_i for the
one-step estimate, and Omega_n(theta1) = mean_i g_i g_i' (or its centered
form) at the exact one-step estimate for the two-step estimate.
"""

from fractions import Fraction


def _frac(a):
    """A nested list of Fractions of the float array ``a``."""
    return [_frac(x) for x in a] if hasattr(a, "__len__") else Fraction(float(a))


def _solve(A, B):
    """A^-1 B for a square matrix A and a matrix B (lists of lists), by
    Gauss-Jordan elimination with exact pivots."""
    n = len(A)
    M = [list(A[i]) + list(B[i]) for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if M[i][c] != 0)
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for i in range(n):
            if i != c and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return [row[n:] for row in M]


def _t(A):
    return [list(col) for col in zip(*A)]


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _mean(rows):
    """The entrywise mean of equally shaped nested lists."""
    n = len(rows)
    if isinstance(rows[0], list):
        return [_mean([r[j] for r in rows]) for j in range(len(rows[0]))]
    return sum(rows) / n


class ExactSystem:
    """The arrays h (n, q), G_obs (n, q, k) and optional factors Z_obs
    (n, e, q) and H (e, e) of one system, held as Fractions."""

    def __init__(self, h, G_obs, Z_obs=None, H=None):
        self.h, self.G = _frac(h), _frac(G_obs)
        self.Z, self.H = (None, None) if Z_obs is None else (_frac(Z_obs), _frac(H))
        self.q, self.k = len(self.h[0]), len(self.G[0][0])
        self.h_n, self.G_n = _mean(self.h), _mean(self.G)

    def identity(self):
        return [[Fraction(int(i == j)) for j in range(self.q)] for i in range(self.q)]

    def data_average(self):
        return _mean([_mul(_t(Z), _mul(self.H, Z)) for Z in self.Z])

    def g(self, theta):
        """g_i(theta) = h_i + G_i theta for every observation."""
        return [[h + sum(G[a][j] * theta[j] for j in range(self.k)) for a, h in enumerate(hi)]
                for hi, G in zip(self.h, self.G)]

    def omega(self, theta, centered=False):
        g = self.g(theta)
        if centered:
            g_n = _mean(g)
            g = [[x - m for x, m in zip(gi, g_n)] for gi in g]
        return _mean([[[x * y for y in gi] for x in gi] for gi in g])

    def theta(self, W):
        """The estimate minimizing g_n' W^-1 g_n."""
        WG, Wh = _solve(W, self.G_n), _solve(W, [[x] for x in self.h_n])
        M, c = _mul(_t(self.G_n), WG), _mul(_t(self.G_n), Wh)
        return [-x[0] for x in _solve(M, c)]

    def one_step(self, weight="data-average"):
        return self.theta(self.data_average() if weight == "data-average" else self.identity())

    def two_step(self, weight="data-average", centered=False):
        return self.theta(self.omega(self.one_step(weight), centered))
