import numpy as np
import pytest

from relaxstab.grids import cheb_grid


@pytest.mark.parametrize("length", [1.0, 20.0])
@pytest.mark.parametrize("n_nodes", [8, 9, 44, 45])
def test_clenshaw_curtis_weights_integrate_polynomials(n_nodes, length):
    # an even node count (N = n_nodes - 1 odd) takes the odd-N branch of the
    # weights; both integrate every monomial up to degree N
    x, _, w = cheb_grid(n_nodes, length)
    for k in range(n_nodes):
        exact = 2.0 * length / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ (x / length) ** k - exact) <= 1e-15 * 2.0 * length
