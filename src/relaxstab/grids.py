"""Grid and differentiation utilities shared by the frequency-domain modules.

Chebyshev collocation (nodes, differentiation matrix, Clenshaw-Curtis
quadrature weights) on ``[-L, L]`` with nodes returned in ascending order.
"""

import numpy as np

__all__ = [
    "cheb_grid",
]


def cheb_grid(n_nodes, length):
    """Chebyshev-Lobatto collocation on ``[-length, length]``.

    Returns ``(x, D, w)`` with ``x`` ascending, ``D`` the spectral
    differentiation matrix and ``w`` Clenshaw-Curtis quadrature weights,
    all scaled to the interval.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 Chebyshev nodes")
    N = n_nodes - 1
    theta = np.pi * np.arange(N + 1) / N
    x = np.cos(theta)                      # descending on [-1, 1]
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))

    # Clenshaw-Curtis weights (exact for the same node set).
    w = np.empty(N + 1)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[1:N]) / (4.0 * k * k - 1)
        v -= np.cos(N * theta[1:N]) / (N * N - 1)
    else:
        w[0] = w[N] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[1:N]) / (4.0 * k * k - 1)
    w[1:N] = 2.0 * v / N

    # flip to ascending order and scale to [-L, L]
    x = x[::-1] * length
    D = D[::-1, ::-1] / length
    w = w[::-1] * length
    return x, np.ascontiguousarray(D), w

