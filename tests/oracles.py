"""Numerical oracles for the closed-form singlet fraction.

The fully entangled fraction of a two-qubit state is the maximal overlap
<psi_U| rho |psi_U> over the maximally entangled states
|psi_U> = (1 x U)|Phi+>, U in U(2).  `qdof.fidelity.singlet_fraction` computes
it in closed form; the two routines here maximize the overlap directly over a
3-angle parameterization of U, by multi-start local optimization and by a
refined grid, so the tests can check the closed form against them.
"""

import math

import numpy as np
from scipy.optimize import minimize

from qdof.fidelity import PHI_PLUS, _fef_closed


def _mes_vector(angles):
    a, b, g = angles
    u = (np.array([[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]])
         @ np.array([[math.cos(b / 2), -math.sin(b / 2)],
                     [math.sin(b / 2), math.cos(b / 2)]])
         @ np.array([[np.exp(-1j * g / 2), 0], [0, np.exp(1j * g / 2)]]))
    return np.kron(np.eye(2), u) @ PHI_PLUS


def _overlap(angles, rho):
    v = _mes_vector(angles)
    return float((v.conj() @ rho @ v).real)


def optimized_singlet_fraction(rho, d=2, restarts=6, seed=0,
                               return_spread=False):
    """Maximal overlap of `rho` with a maximally entangled state.

    Multi-start local maximization over the 3-angle unitary parameterization,
    combined with the analytic optimum; the best value is returned.  With
    `return_spread` the gap between that value and the best converged restart
    is reported so optimization trouble can be flagged.
    """
    rho = np.asarray(rho, dtype=complex)
    if d != 2 or rho.shape != (4, 4):
        raise ValueError("v1 computes singlet fractions of two-qubit states")
    rho = rho / np.trace(rho).real
    best = _fef_closed(rho)
    if restarts == 0:
        return (best, 0.0) if return_spread else best
    rng = np.random.default_rng(seed)
    starts = [np.zeros(3), np.array([0.0, math.pi, 0.0])]
    starts += [rng.uniform(0, 2 * math.pi, 3) for _ in range(restarts)]
    converged = []
    for x0 in starts:
        res = minimize(lambda x: -_overlap(x, rho), x0, method="L-BFGS-B",
                       options={"ftol": 1e-14, "gtol": 1e-12})
        converged.append(-res.fun)
    top = max(converged)
    value = max(best, top)
    if return_spread:
        spread = value - top
        return value, spread
    return value


def _mes_batch(alphas, betas, gammas):
    """All MES vectors over an angle grid, shape (A, B, G, 4)."""
    a = alphas[:, None, None]
    b = betas[None, :, None]
    g = gammas[None, None, :]
    ea, eg = np.exp(-1j * a / 2), np.exp(-1j * g / 2)
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    u00 = ea * cb * eg
    u01 = -ea * sb / eg
    u10 = sb * eg / ea
    u11 = cb / (ea * eg)
    shape = np.broadcast_shapes(u00.shape, u01.shape, u10.shape, u11.shape)
    out = np.zeros(shape + (4,), dtype=complex)
    s2 = math.sqrt(2)
    out[..., 0] = np.broadcast_to(u00, shape) / s2
    out[..., 1] = np.broadcast_to(u10, shape) / s2
    out[..., 2] = np.broadcast_to(u01, shape) / s2
    out[..., 3] = np.broadcast_to(u11, shape) / s2
    return out


def singlet_fraction_grid(rho, points_per_axis=22, refine=2):
    """Deterministic grid oracle over the 3-angle parameterization."""
    rho = np.asarray(rho, dtype=complex)
    rho = rho / np.trace(rho).real
    lo = np.zeros(3)
    hi = np.full(3, 2 * math.pi)
    best_x, best = None, -1.0
    for _ in range(refine + 1):
        axes = [np.linspace(lo[i], hi[i], points_per_axis) for i in range(3)]
        vs = _mes_batch(*axes).reshape(-1, 4)
        vals = np.einsum("ni,ij,nj->n", vs.conj(), rho, vs).real
        top = int(np.argmax(vals))
        if vals[top] > best:
            best = float(vals[top])
            ia, rem = divmod(top, points_per_axis ** 2)
            ib, ig = divmod(rem, points_per_axis)
            best_x = np.array([axes[0][ia], axes[1][ib], axes[2][ig]])
        span = (hi - lo) / (points_per_axis - 1)
        lo = best_x - 2 * span
        hi = best_x + 2 * span
    return best
