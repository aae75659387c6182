"""The observer step in its general form: the bitwise reference for
`numerics.observer_gain`, which reads its argument off an ascending grid,
and for `observer.step_observer`, which takes its influence solve straight
from the gain and its interface slopes from end values.

Only the tests call these.  `ratio_I1_sqrt` takes any w >= 0 in any order
and shape: it checks the extremes, takes the Bessel quotient on the whole
array and writes the power series over the entries below the cut.
"""

import numpy as np
from scipy import special

from stefanetc import numerics, plant
from stefanetc.numerics import BESSEL_Z_MAX, unit_grid


def ratio_I1_sqrt(w):
    """I1(sqrt(w))/sqrt(w), continuous at w = 0 with value 1/2."""
    w = np.asarray(w, dtype=float)
    if np.fmin.reduce(w, axis=None, initial=0.0) < 0.0:
        raise ValueError("ratio_I1_sqrt requires w >= 0")
    z = np.sqrt(w)
    if np.fmax.reduce(z, axis=None, initial=0.0) > BESSEL_Z_MAX:
        raise ValueError(f"Bessel argument outside [0, {BESSEL_Z_MAX:g}]")
    out = special.i1(z, out=np.empty(w.shape))
    np.divide(out, z, out=out, where=z != 0.0)
    small = (w < numerics._RATIO_SERIES_CUT).reshape(-1).nonzero()[0]
    if small.size:
        out.reshape(-1)[small] = numerics._ratio_series(w.reshape(-1)[small],
                                                        1.0)
    return float(out) if out.ndim == 0 else out


def observer_gain(x, s, lam, alpha):
    """p(x, s) = -lam s I1(z)/z on any x, through `ratio_I1_sqrt`."""
    x = np.asarray(x, dtype=float)
    w = lam * (s * s - x * x) / alpha
    out = -lam * s * np.asarray(ratio_I1_sqrt(np.maximum(w, 0.0)))
    return float(out) if out.ndim == 0 else out


def forced_profile(u, s, sdot, q, dt, k, factor, source):
    """`plant.advance_profile` under an explicit source: the numpy
    right-hand side with that source, solved through `factor`."""
    return plant.solve_tridiagonal(factor, numerics.forced_rhs(
        u, s, sdot, q, dt, k, -factor[0], source))


def influence_profile(p, s, dt, k, factor):
    """The Sherman-Morrison influence profile z: the step of a zero profile
    under zero flux and the source p/dt."""
    return forced_profile(np.zeros(p.size), s, 0.0, 0.0, dt, k, factor,
                          p / dt)


def step_observer(u_hat, s, sdot, phys, lam, q, dt, measured_slope, factor):
    """The new observer profile of `observer.step_observer`, through the
    general gain, `influence_profile` and slopes taken on arrays."""
    n = u_hat.size
    p = observer_gain(unit_grid(n) * s, s, lam, phys.alpha)
    u_star = forced_profile(u_hat, s, sdot, q, dt, phys.k, factor,
                            p * measured_slope)
    z = influence_profile(p, s, dt, phys.k, factor)
    h = 1.0 / (n - 1)
    w_u_star = (u_star[..., -1] - u_star[..., -2]) / (h * s)
    w_z = (z[..., -1] - z[..., -2]) / (h * s)
    u_hat_new = u_star - z * (dt * w_u_star / (1.0 + dt * w_z))
    u_hat_new[-1] = 0.0
    return u_hat_new
