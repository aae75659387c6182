"""Exact relations between runs of the package under a change of units.

A relation between two runs needs no reference implementation, so these
checks do not trust the code under test.  Scaling by a power of two is
exact in binary floating point, so wherever a relation holds in exact
arithmetic and every expression carries its units consistently, the two
runs agree to the bit.  A term with a wrong power of s, L or dt, such as a
dropped s in the flux ghost node or in the advection, breaks them.  At a
scale that is not a power of two the scaled inputs round, so those runs
agree to a tolerance fixed beforehand.  A parameter the loop does not
read, such as the transforms' epsilon, leaves it bitwise unchanged.
"""

import functools

import numpy as np
import pytest

from stefanetc import config, harness


@functools.lru_cache(maxsize=None)
def run(kind, overrides):
    """The run of `kind` with the (name, value) pairs of `overrides` set;
    cached, since several checks compare against one run."""
    cfg = config.default_config(kind)
    for name, value in overrides:
        cfg = config.override(cfg, name, repr(value))
    result = harness.run_scenario(cfg)
    assert result.breach is None
    return result


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def event_rows(result):
    return [(e.time, e.reason, e.q_j, e.dwell, e.d_squared, e.gamma_m)
            for e in result.events]


# The shipped config (n = 21, dt = 0.5 s) over 400 steps, with a 50 s
# sampling period so that `sampled_data` makes events within the horizon.
SHIPPED = config.default_config()
L, S0, S_R = SHIPPED.phys.L, SHIPPED.init.s0, SHIPPED.ctrl.s_r
C, LAM, DT = SHIPPED.ctrl.c, SHIPPED.ctrl.lam, SHIPPED.scheme.dt
GAMMA, M0 = SHIPPED.trig.gamma, SHIPPED.trig.m0
HORIZON, PERIOD = 400 * DT, 50.0


def diffusive(ell):
    """(L, s0, s_r, c, lambda, dt, horizon, period) scaled as lengths by ell
    and times by ell^2: k, rho, cp, the latent heat, Tm and the initial
    amplitudes stay, so alpha and beta, in length^2 per time, stay too."""
    return (("physical.L", ell * L), ("initial.s0", ell * S0),
            ("controller.setpoint", ell * S_R),
            ("controller.c", C / ell ** 2), ("controller.lambda", LAM / ell ** 2),
            ("scheme.dt", ell ** 2 * DT), ("scheme.horizon", ell ** 2 * HORIZON),
            ("scenario.period", ell ** 2 * PERIOD))


def scaled_columns(ell):
    """The loop's columns and how each scales under `diffusive(ell)`: t by
    ell^2, s by ell, sdot by 1/ell, the flux q by 1/ell (a temperature over
    a length), the integral of u_hat by ell; the boundary temperature
    stays."""
    return (("t", ell ** 2), ("s", ell), ("sdot", 1.0 / ell),
            ("q", 1.0 / ell), ("integral_u_hat", ell), ("T0_boundary", 1.0))


@pytest.mark.parametrize("kind", ["continuous", "sampled_data"])
def test_diffusive_rescaling_is_exact(kind):
    # Plant, observer and control law are covariant.
    base = run(kind, diffusive(1.0))
    assert len(base.events) > 1
    for ell in (2.0, 0.5, 4.0):
        scaled = run(kind, diffusive(ell))
        got, ref = scaled.series, base.series
        for name, factor in scaled_columns(ell):
            assert bits(got[name]) == bits(ref[name] * factor), (ell, name)
        assert bits([e.time for e in scaled.events]) \
            == bits([ell ** 2 * e.time for e in base.events]), ell


# The relative tolerance of the rescaling at ell = 3, where ell and ell^2
# are not powers of two and each scaled input rounds: 9.3e-15 was measured
# over 4001 steps.
NON_DYADIC_RTOL = 1e-13


@pytest.mark.parametrize("kind", ["continuous", "sampled_data"])
def test_non_dyadic_rescaling_within_roundoff(kind):
    ell = 3.0
    base, scaled = run(kind, diffusive(1.0)), run(kind, diffusive(ell))
    for name, factor in scaled_columns(ell):
        np.testing.assert_allclose(scaled.series[name],
                                   base.series[name] * factor,
                                   rtol=NON_DYADIC_RTOL, atol=0.0,
                                   err_msg=name)
    np.testing.assert_allclose([e.time for e in scaled.events],
                               [ell ** 2 * e.time for e in base.events],
                               rtol=NON_DYADIC_RTOL, atol=0.0)


@pytest.mark.parametrize("kind", ["continuous", "sampled_data"])
def test_epsilon_leaves_the_loop_unchanged(kind):
    # epsilon is the transforms' parameter: the plant, the observer, the
    # control law and a periodic schedule never read it, so any admissible
    # value leaves the loop's columns and events bitwise as they are.
    assert SHIPPED.ctrl.epsilon == 10.0
    base = run(kind, diffusive(1.0))
    other = run(kind, diffusive(1.0) + (("controller.epsilon", 0.2),))
    for name, _ in scaled_columns(1.0):
        assert bits(other.series[name]) == bits(base.series[name]), name
    assert bits([e.time for e in other.events]) \
        == bits([e.time for e in base.events])


def test_trigger_depends_on_gamma_m0_only_through_their_product():
    # With A derived, mu_i = theta_i/(gamma (1 - delta)), A and sigma scale
    # as 1/gamma, so gamma sigma, and with it tau, does not depend on gamma,
    # and every source of m scales as 1/gamma.  So (gamma, m0) -> (kappa
    # gamma, m0/kappa) scales m, and V = A V1 + m and W with it, by 1/kappa
    # and leaves everything else.  A large eta brings threshold events
    # inside 800 steps.
    trigger = (("trigger.eta", 0.3), ("scheme.horizon", 2 * HORIZON))
    base = run("event_triggered", trigger)
    assert sum(e.reason == "threshold" for e in base.events) > 10
    scaled_columns = ("m", "V", "W")
    for kappa in (2.0, 0.25):
        scaled = run("event_triggered", trigger + (
            ("trigger.gamma", kappa * GAMMA), ("trigger.m0", M0 / kappa)))
        assert event_rows(scaled) == event_rows(base), kappa
        for name in harness.SERIES_COLUMNS:
            factor = 1.0 / kappa if name in scaled_columns else 1.0
            assert bits(scaled.series[name]) \
                == bits(base.series[name] * factor), (kappa, name)
