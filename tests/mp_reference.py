"""A 50-digit reference of the first-chaos geometry on small grids.

mpmath at `DPS` = 50 digits recomputes, from the covariance formulas alone,
what the package computes in doubles:

- the increment Gram of bm, fbm, weighted_fbm and sum, each entry the second
  difference of R at the grid nodes;
- at the split after increment m, the maximal past/future correlation d_r,
  the top singular value of X = L11^-1 G12 L22^-T (L11, L22 the Cholesky
  factors of the diagonal blocks), and the operator norm of the truncation,
  opnorm = 1 / sqrt((1 - d_r)(1 + d_r)).  The identity is exact: opnorm^2 =
  lambda_max(G11, S) with S = G11 - G12 G22^-1 G21 the Schur complement, and
  L11^-1 S L11^-T = I - X X^T;
- |f|^2 and rho = |Gamma_r f|^2 of a given double vector f, such as the
  escape direction of the certificate.

Grid points and parameters are the doubles the package uses, each converted
exactly, so the reference is the value on the package's own grid rather
than on the decimal one.  A model is a plain tuple: ("bm",), ("fbm", H),
("weighted_fbm", H, sigma) or ("sum", model1, model2, gamma).  The weighted
model has no analytic kernel: its Gram is sigma_i sigma_j times the fBm
Gram, whose block sums are its R at the nodes.

A test helper, not part of the package, sized for grids of at most 8
increments; every function computes at `DPS` digits whatever the caller's
mpmath precision.
"""

from mpmath import mp

DPS = 50


def _mpf(x):
    return mp.mpf(float(x))


def cov(model, s, t):
    """R(s, t) of a bm, fbm or sum model at mpf times s and t."""
    kind = model[0]
    if kind == "bm":
        return min(s, t)
    if kind == "fbm":
        h2 = 2 * _mpf(model[1])
        return (abs(t) ** h2 + abs(s) ** h2 - abs(t - s) ** h2) / 2
    if kind == "sum":
        _, model1, model2, gamma = model
        return cov(model1, s, t) + _mpf(gamma) ** 2 * cov(model2, s, t)
    raise ValueError(f"no covariance formula for model {kind!r}")


def gram(model, points):
    """N x N increment Gram of model on the nodes `points` (t_0 = 0 < ... < t_N)."""
    n = len(points) - 1
    with mp.workdps(DPS):
        G = mp.matrix(n, n)
        if model[0] == "weighted_fbm":
            _, H, sigma = model
            base = gram(("fbm", H), points)
            sig = [_mpf(s) for s in sigma]
            for i in range(n):
                for j in range(n):
                    G[i, j] = sig[i] * base[i, j] * sig[j]
            return G
        pts = [_mpf(p) for p in points]
        R = [[cov(model, s, t) for t in pts] for s in pts]
        for i in range(n):
            for j in range(n):
                G[i, j] = R[i + 1][j + 1] - R[i + 1][j] - R[i][j + 1] + R[i][j]
        return G


def split_geometry(G, m):
    """(d_r, opnorm) at the split after increment m, 0 < m < N."""
    n = G.rows
    with mp.workdps(DPS):
        L11 = mp.cholesky(G[0:m, 0:m])
        L22 = mp.cholesky(G[m:n, m:n])
        X = mp.inverse(L11) * G[0:m, m:n] * mp.inverse(L22).T
        d = max(mp.svd_r(X, compute_uv=False))
        return d, 1 / mp.sqrt((1 - d) * (1 + d))


def escape_norms(G, f, m):
    """(|f|^2, rho) with rho = |Gamma_r f|^2, Gamma_r keeping the first m
    coordinates of the double vector f."""
    with mp.workdps(DPS):
        x = mp.matrix([_mpf(v) for v in f])
        past = mp.matrix([x[i] if i < m else 0 for i in range(G.rows)])
        return (x.T * G * x)[0], (past.T * G * past)[0]
