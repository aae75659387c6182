"""Physical, controller, and trigger parameters, and the derivation chain.

Every constant the closed-loop guarantees rely on is derived here from the
raw configuration: diffusivities, the gain-integral bound
Upsilon = cosh(sqrt(lambda/alpha) L), the theta weights, the trigger weights
mu_i, zeta of the inverse controller kernel, the Lyapunov scale A and
damping sigma, the Lyapunov weights B and xi, the dwell-time quadratic
(a1, a2, a3) and minimal dwell tau, and the epsilon admissibility bounds.
Each input is checked once, before the first formula that needs it.
Initial data is validated against the positivity (Lipschitz / sandwich /
setpoint-window) conditions.

All internal computation is in cm-s-degC-J units; SI inputs must be converted
at ingestion (the likeliest reproduction failure is a mixed unit system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .diagnostics import f_max as compute_f_max
from .errors import ConfigurationError, InvariantViolation
from .numerics import BESSEL_Z_MAX


@dataclass(frozen=True)
class PhysicalParams:
    """Material constants in cm-s-degC-J units, plus derived diffusivities."""
    k: float        # thermal conductivity [W/cm/degC]
    rho: float      # density [kg/cm^3]
    cp: float       # heat capacity [J/kg/degC]
    dH: float       # latent heat of fusion [J/kg]
    L: float        # domain length [cm]
    Tm: float       # melting temperature [degC]
    alpha: float    # k/(rho cp) [cm^2/s]
    beta: float     # k/(rho dH) [cm^2/degC/s]


def derive_physical(k: float, rho: float, cp: float, dH: float, L: float,
                    Tm: float) -> PhysicalParams:
    """Populate the derived diffusivities alpha = k/(rho cp), beta = k/(rho dH)."""
    for name, value in (("k", k), ("rho", rho), ("cp", cp), ("dH", dH),
                        ("L", L), ("Tm", Tm)):
        if not value > 0.0:
            raise ConfigurationError(f"physical constant {name}={value:g} must be positive")
    return PhysicalParams(k=k, rho=rho, cp=cp, dH=dH, L=L, Tm=Tm,
                          alpha=k / (rho * cp), beta=k / (rho * dH))


@dataclass(frozen=True)
class ControllerConfig:
    c: float            # control gain [1/s]
    lam: float          # observer gain parameter [1/s]
    epsilon: float      # transform parameter
    s_r: float          # setpoint [cm]

    def validate(self, phys: PhysicalParams) -> None:
        if not self.c > 0.0:
            raise ConfigurationError("control gain c must be positive")
        if not self.lam > 0.0:
            raise ConfigurationError("observer gain lambda must be positive")
        # The observer gain's largest argument, lam (s^2 - x^2)/alpha at
        # x = 0, s = L, in its own order of operations: every argument the
        # gain takes on (0, L] is then at most z_max.
        z_max = math.sqrt(self.lam * (phys.L * phys.L) / phys.alpha)
        if z_max > BESSEL_Z_MAX:
            raise ConfigurationError(
                f"lambda={self.lam:g} and L={phys.L:g} put the observer-gain "
                f"Bessel argument sqrt(lambda L^2/alpha)={z_max!r} above "
                f"{BESSEL_Z_MAX:g}")
        limit = 2.0 * math.sqrt(phys.alpha * self.c) / phys.beta
        if not 0.0 < self.epsilon < limit:
            raise ConfigurationError(
                f"epsilon={self.epsilon:g} outside (0, 2*sqrt(alpha*c)/beta={limit:g})")
        if not 0.0 < self.s_r < phys.L:
            raise ConfigurationError(f"setpoint s_r={self.s_r:g} outside (0, L)")


@dataclass
class InitialData:
    """Initial profiles sampled on a common x-grid over [0, s0]."""
    s0: float
    x: np.ndarray           # sample locations in [0, s0]
    T0: np.ndarray          # plant temperature [degC]
    T0_hat: np.ndarray      # observer temperature [degC]
    H: float                # Lipschitz bound on T0 - Tm
    H_hat_l: float          # lower sandwich bound on the observer profile
    H_hat_u: float          # upper sandwich bound


@dataclass(frozen=True)
class TriggerConfig:
    eta: float          # decay rate of m [1/s]
    gamma: float        # threshold scale
    delta: float        # dwell-time split parameter, in (0, 1/(1+c))
    m0: float           # initial dynamic variable
    A: float | None     # Lyapunov scale; None means auto (just above the floor)
    b_star: float | None  # gradient-weight margin; None means auto (2x floor)


@dataclass(frozen=True)
class TriggerDerived:
    """Every constant the trigger and its guarantees need, fully resolved."""
    theta0: float
    theta1: float
    theta2: float
    theta3: float
    Upsilon: float
    mu1: float
    mu2: float
    mu3: float
    zeta: float         # of psi(x) = e^{nu x}(zeta sin(omega x) + eps cos(omega x))
    A: float
    A_min: float
    sigma: float
    a1: float
    a2: float
    a3: float
    tau: float
    max_dwell: float
    R: float
    eps_bound: float
    eps_bound_components: tuple[float, float, float]
    f_max: float
    b_star: float
    B: float            # Lyapunov weight of the error slope term of V1
    xi: float           # decay rate of W = V e^{-xi s}


def compute_upsilon(alpha: float, lam: float, L: float) -> float:
    """Upsilon = max over s in [0, L] of |1 - (1/alpha) int_0^s p(y, s) dy|.

    With y = s sin(theta) and int_0^{pi/2} I1(z0 cos theta) dtheta =
    (cosh z0 - 1)/z0, the gain integral is int_0^s p dy =
    -alpha (cosh(sqrt(lam/alpha) s) - 1), so the bracket is
    cosh(sqrt(lam/alpha) s), increasing in s: Upsilon = cosh(sqrt(lam/alpha) L).
    ControllerConfig.validate caps the argument at BESSEL_Z_MAX, so it is finite.
    """
    return math.cosh(math.sqrt(lam / alpha) * L)


def compute_thetas(c: float, L: float, alpha: float, beta: float,
                   Upsilon: float) -> tuple[float, float, float, float]:
    """theta0 = 4c^2, theta1 = 4c^4 L/alpha^2, theta2 = 4c^4/beta^2, theta3 = 4c^2 Upsilon^2."""
    return (
        4.0 * c * c,
        4.0 * c ** 4 * L / (alpha * alpha),
        4.0 * c ** 4 / (beta * beta),
        4.0 * c * c * Upsilon * Upsilon,
    )


def compute_mus(thetas, gamma: float, delta: float):
    """mu_i = theta_i / (gamma (1 - delta)) for the three state-norm weights."""
    scale = gamma * (1.0 - delta)
    _, theta1, theta2, theta3 = thetas
    return theta1 / scale, theta2 / scale, theta3 / scale


def min_A(mu1: float, mu2: float, L: float, alpha: float, beta: float,
          epsilon: float, c: float, zeta: float) -> float:
    """Floor on the Lyapunov scale A (max of two bracketed expressions)."""
    zz = zeta * zeta + epsilon * epsilon
    first = 96.0 * mu1 * L * L / alpha * (1.0 + beta * beta * zz * L * L / (alpha * alpha))
    second = 4.0 * beta * (3.0 * mu1 * zz * L + mu2) / (epsilon * alpha * c)
    return max(first, second)


def compute_sigma(A: float, alpha: float, L: float) -> float:
    """Trigger damping sigma = 4 A alpha L."""
    return 4.0 * A * alpha * L


def epsilon_star(alpha: float, beta: float, c: float, L: float,
                 R: float) -> float:
    """Positive root of the downward-opening quadratic h(eps), with
    R = 2 sqrt(alpha c)/beta.

    h(0) = alpha c / (4 beta) > 0 and h' < 0 for eps >= 0, so the positive
    root exists and is unique.
    """
    h0 = alpha * c / (4.0 * beta)
    lin = 4.0 * beta * beta * R * R * L / alpha + 7.0 * alpha / (16.0 * L)
    quad = 4.0 * beta + beta ** 3 * R * R * L * L / (2.0 * alpha * alpha)
    # h(e) = h0 - lin e - quad e^2 = 0; stable form of the positive root.
    disc = math.sqrt(lin * lin + 4.0 * quad * h0)
    return 2.0 * h0 / (lin + disc)


def epsilon_bounds(alpha: float, beta: float, c: float, L: float,
                   R: float) -> tuple[float, tuple[float, float, float]]:
    """The admissible upper bound on epsilon and its three components, with
    R = 2 sqrt(alpha c)/beta.

    Returns (min of the three, (sqrt(alpha c)/beta, the alpha/(8 beta L ...)
    term, epsilon_star)).  Callers report rather than hard-fail on violation:
    the convergence analysis needs the bound, the closed loop runs without it.
    """
    first = math.sqrt(alpha * c) / beta
    second = alpha / (8.0 * beta * L * (8.0 + beta * beta * R * R * L * L / (alpha * alpha)))
    third = epsilon_star(alpha, beta, c, L, R)
    return min(first, second, third), (first, second, third)


def dwell_time_closed_form(a1: float, a2: float, a3: float) -> float:
    """int_0^1 ds / (a1 s^2 + a2 s + a3), handling all discriminant cases."""
    if a3 <= 0.0 or a1 < 0.0 or a2 < 0.0:
        raise ConfigurationError("dwell-time coefficients need a3 > 0, a1, a2 >= 0")
    if a1 == 0.0:
        if a2 == 0.0:
            return 1.0 / a3
        return math.log((a2 + a3) / a3) / a2
    disc = a2 * a2 - 4.0 * a1 * a3
    if disc > 0.0:
        rt = math.sqrt(disc)
        # -a2 + rt cancels badly when a2^2 >> a1 a3; recover the small root
        # from the product r1 r2 = a3/a1 instead.
        r2 = (-a2 - rt) / (2.0 * a1)
        r1 = a3 / (a1 * r2)
        # 1/(a1 (s - r1)(s - r2)) integrated in closed form.
        return (math.log(abs((1.0 - r1) / (1.0 - r2)))
                - math.log(abs(r1 / r2))) / (a1 * (r1 - r2))
    if disc == 0.0:
        r = -a2 / (2.0 * a1)
        return (1.0 / (r - 1.0) - 1.0 / r) / a1
    rt = math.sqrt(-disc)
    return 2.0 / rt * (math.atan((2.0 * a1 + a2) / rt) - math.atan(a2 / rt))


def min_dwell_time(theta0: float, gamma: float, sigma: float, eta: float,
                   delta: float, c: float):
    """(a1, a2, a3, tau): dwell-time quadratic coefficients and minimal dwell.

    tau < 1/c is a consequence of delta < 1/(1+c), which `derive_trigger`
    checks; a violation indicates an inconsistent configuration and is
    raised, not returned.
    """
    a1 = gamma * delta * sigma
    a2 = 1.0 + theta0 + 2.0 * gamma * (1.0 - delta) * sigma + eta
    a3 = (1.0 + theta0 + gamma * (1.0 - delta) * sigma + eta) * (1.0 - delta) / delta
    tau = dwell_time_closed_form(a1, a2, a3)
    if tau >= 1.0 / c:
        raise InvariantViolation(
            "tau_below_max_dwell",
            f"tau={tau:g} >= 1/c={1.0 / c:g} although delta < 1/(1+c)")
    return a1, a2, a3, tau


# Auto A sits this factor above its floor A_min.
A_MARGIN = 1.05


def derive_trigger(phys: PhysicalParams, ctrl: ControllerConfig,
                   trig: TriggerConfig) -> TriggerDerived:
    """Run the full derivation chain from raw parameters to trigger constants."""
    ctrl.validate(phys)
    for name, value in (("eta", trig.eta), ("gamma", trig.gamma), ("m0", trig.m0)):
        if not value > 0.0:
            raise ConfigurationError(f"trigger parameter {name}={value:g} must be positive")
    if not 0.0 < trig.delta < 1.0 / (1.0 + ctrl.c):
        raise ConfigurationError(
            f"delta={trig.delta:g} must lie in (0, 1/(1+c)={1.0 / (1.0 + ctrl.c):g})")
    L, alpha, beta = phys.L, phys.alpha, phys.beta
    c, eps = ctrl.c, ctrl.epsilon

    Upsilon = compute_upsilon(alpha, ctrl.lam, L)
    thetas = compute_thetas(c, L, alpha, beta, Upsilon)
    mu1, mu2, mu3 = compute_mus(thetas, trig.gamma, trig.delta)

    # zeta of the inverse controller kernel psi (Koga, Diagne & Krstic 2019);
    # for epsilon below sqrt(alpha c)/beta the kernel bound must hold.
    omega = math.sqrt((4.0 * alpha * c - (eps * beta) ** 2) / (4.0 * alpha * alpha))
    zeta = -(2.0 * alpha * c - (eps * beta) ** 2) / (2.0 * alpha * beta * omega)
    if eps < math.sqrt(alpha * c) / beta:
        bound = 4.0 * alpha * c / (beta * beta)
        if zeta * zeta + eps * eps >= bound:
            raise ConfigurationError(
                f"zeta^2+eps^2={zeta * zeta + eps * eps:g} "
                f"not below 4*alpha*c/beta^2={bound:g}")
    A_min = min_A(mu1, mu2, L, alpha, beta, eps, c, zeta)
    if trig.A is None:
        A = A_MARGIN * A_min if A_min > 0.0 else 1.0
    else:
        A = trig.A
        # A_min >= 0, so this also keeps A positive.
        if not A > A_min:
            raise ConfigurationError(f"A={A:g} does not exceed the floor A_min={A_min:g}")
    sigma = compute_sigma(A, alpha, L)

    a1, a2, a3, tau = min_dwell_time(thetas[0], trig.gamma, sigma, trig.eta,
                                     trig.delta, c)

    R = 2.0 * math.sqrt(alpha * c) / beta
    eps_bound, components = epsilon_bounds(alpha, beta, c, L, R)
    fmax = compute_f_max(L, ctrl.lam, alpha, beta, c, eps)

    b_floor = mu3 / (A * alpha)
    if trig.b_star is None:
        b_star = 2.0 * b_floor
    else:
        b_star = trig.b_star
        if b_star <= b_floor:
            raise ConfigurationError(
                f"b_star={b_star:g} does not exceed the floor mu3/(A alpha)={b_floor:g}")

    # The weights of V = A V1 + m and W = V e^{-xi s}.
    B = 4.0 * L * L * fmax * fmax / (alpha * alpha) \
        + eps * beta / (2.0 * c) + b_star
    xi = max(c * L / beta, (beta / (alpha * eps)) * (eps * eps + c / beta))

    derived = TriggerDerived(
        theta0=thetas[0], theta1=thetas[1], theta2=thetas[2], theta3=thetas[3],
        Upsilon=Upsilon, mu1=mu1, mu2=mu2, mu3=mu3, zeta=zeta, A=A,
        A_min=A_min, sigma=sigma, a1=a1, a2=a2, a3=a3, tau=tau,
        max_dwell=1.0 / c, R=R, eps_bound=eps_bound,
        eps_bound_components=components, f_max=fmax, b_star=b_star, B=B, xi=xi,
    )
    # A constant past double precision would leave the trigger weights and
    # the Lyapunov monitors inf or nan: on the shipped config B overflows
    # from sqrt(lam L^2/alpha) = 354 on, f_max and b_star from about 356,
    # theta3 and mu3 a little later.
    bad = []
    for f in fields(derived):
        value = getattr(derived, f.name)
        if not all(map(math.isfinite, value if isinstance(value, tuple)
                       else (value,))):
            bad.append(f"{f.name}={value!r}")
    if bad:
        raise ConfigurationError(
            f"derived constants not finite in double precision: {', '.join(bad)}")
    return derived


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass
class ValidationReport:
    checks: list[ConditionCheck] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name:<24s} margin={c.margin:+.6g}  {c.detail}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return lines


def validate_initial_data(init: InitialData, ctrl: ControllerConfig,
                          phys: PhysicalParams) -> ValidationReport:
    """Check the positivity hypotheses; report margins, do not raise.

    Conditions: domain and smoothness of the initial profile, the Lipschitz
    cone 0 <= T0 - Tm <= H (s0 - x), the observer sandwich, the lambda bound,
    and the setpoint window.  Report-based, so sweeps can record failures.
    """
    rep = ValidationReport()
    s0, x = init.s0, init.x
    u0 = init.T0 - phys.Tm
    u0_hat = init.T0_hat - phys.Tm
    gap = s0 - x
    # Auto-fitted cone bounds sit exactly on the profile, so the margins are
    # zero up to roundoff; tolerate that without declaring a failure.
    tol = 1e-12 * max(1.0, float(np.max(np.abs(u0))),
                      float(np.max(np.abs(u0_hat))))

    rep.checks.append(ConditionCheck(
        "domain", 0.0 < s0 < phys.L, min(s0, phys.L - s0),
        f"s0={s0:g} in (0, L={phys.L:g})"))

    fd = np.diff(init.T0) / np.diff(x)
    smooth = bool(np.all(np.isfinite(fd)))
    rep.checks.append(ConditionCheck(
        "smooth_initial_profile", smooth,
        float(np.max(np.abs(fd))) if smooth else float("inf"),
        "finite difference quotients of T0 bounded"))

    low = float(np.min(u0))
    cone = float(np.min(init.H * gap - u0))
    rep.checks.append(ConditionCheck(
        "lipschitz_cone", low >= -tol and cone >= -tol, min(low, cone),
        f"0 <= T0 - Tm <= H (s0 - x), H={init.H:g}"))

    order_ok = init.H_hat_u >= init.H_hat_l > init.H
    rep.checks.append(ConditionCheck(
        "sandwich_order", order_ok, init.H_hat_l - init.H,
        f"H_hat_u={init.H_hat_u:g} >= H_hat_l={init.H_hat_l:g} > H={init.H:g}"))

    lo_margin = float(np.min(u0_hat - init.H_hat_l * gap))
    hi_margin = float(np.min(init.H_hat_u * gap - u0_hat))
    rep.checks.append(ConditionCheck(
        "observer_sandwich", lo_margin >= -tol and hi_margin >= -tol,
        min(lo_margin, hi_margin),
        "H_hat_l (s0 - x) <= T0_hat - Tm <= H_hat_u (s0 - x)"))

    lam_bound = 4.0 * phys.alpha / (s0 * s0) * (init.H_hat_l - init.H) / init.H_hat_u \
        if init.H_hat_u > 0 else float("-inf")
    rep.checks.append(ConditionCheck(
        "lambda_bound", ctrl.lam < lam_bound, lam_bound - ctrl.lam,
        f"lambda={ctrl.lam:g} < 4 alpha (H_hat_l - H)/(s0^2 H_hat_u)={lam_bound:g}"))

    s_r_floor = s0 + phys.beta * s0 * s0 / (2.0 * phys.alpha) * init.H_hat_u
    rep.checks.append(ConditionCheck(
        "setpoint_window", s_r_floor < ctrl.s_r < phys.L,
        min(ctrl.s_r - s_r_floor, phys.L - ctrl.s_r),
        f"{s_r_floor:g} < s_r={ctrl.s_r:g} < L={phys.L:g}"))

    return rep

