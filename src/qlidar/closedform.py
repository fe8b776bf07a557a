"""Scalar closed forms for the six input states.

These are direct transcriptions of the per-state formulas for the parity and
zero/nonzero observables, their phase derivatives, the photon distribution,
and the phase-space distribution, written in terms of the scalar
intermediates (p, q, x / G, W, S, T, U, O and primed variants).  They exist
as an independent second evaluation route: the pair-sum engine in
:mod:`qlidar.detection` is the product, these forms are regression checks.

The transcriptions assume real nonnegative alpha and zeta, which is how the
state families are parametrized here (amplitudes enter through their moduli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import MziConfig
from .states import StateKind

# (|A|, |B|, |C|, |D|) coefficient moduli and phase index j per state kind
COEFFICIENTS = {
    StateKind.CS: ((1.0, 0.0, 0.0, 0.0), 0),
    StateKind.ECSS: ((0.0, 1.0, 0.0, 1.0), 0),
    StateKind.MPS0: ((1.0, 1.0, 1.0, 1.0), 0),
    StateKind.MPS1: ((1.0, 1.0, 1.0, 1.0), 1),
    StateKind.MPS2: ((1.0, 1.0, 1.0, 1.0), 2),
    StateKind.MPS3: ((1.0, 1.0, 1.0, 1.0), 3),
}


@dataclass(frozen=True)
class ClosedFormContext:
    """Scalar intermediates for one (state kind, alpha^2, zeta^2, config) point.

    Recomputed per configuration, never cached across phase values.
    """

    j: int
    mod_a: float
    mod_b: float
    mod_c: float
    mod_d: float
    alpha2: float
    zeta2: float
    phi: float
    t: float
    r: float
    # second input vacuum
    p: float
    q: float
    x: float
    p_prime: float
    x_prime: float
    # second input coherent
    G: float
    W: float
    S1: float
    S2: float
    T1: float
    T2: float
    G_prime: float
    W_prime: float
    S1_prime: float
    S2_prime: float
    T1_prime: float
    T2_prime: float

    @property
    def X(self) -> float:
        return self.mod_a**2 + self.mod_b**2 + self.mod_c**2 + self.mod_d**2

    @property
    def Y(self) -> float:
        return self.mod_a * self.mod_c + self.mod_b * self.mod_d

    @property
    def V(self) -> float:
        return (self.mod_a + self.mod_c) * (self.mod_b + self.mod_d)

    @property
    def norm_sq(self) -> float:
        """Inverse squared normalization constant of the input state."""
        return _norm_sq((self.mod_a, self.mod_b, self.mod_c, self.mod_d), self.j, self.alpha2)


def _norm_sq(mods: tuple, j: int, alpha2: float) -> float:
    """Inverse squared norm of A|alpha> + B|i alpha> + C|-alpha> + D|-i alpha> from the moduli (|A|, |B|, |C|, |D|)."""
    a, b, c, d = mods
    g = math.exp(-alpha2)
    return 1.0 / (
        (a * a + b * b + c * c + d * d)
        + 2.0 * (a * c + b * d) * g * g * math.cos(j * math.pi)
        + 2.0 * (a + c) * (b + d) * g * math.cos(alpha2 - 0.5 * j * math.pi)
    )


def closed_form_context(
    kind: StateKind, alpha2: float, config: MziConfig, zeta2: float = 0.0
) -> ClosedFormContext:
    """Assemble every scalar intermediate for the given operating point."""
    if kind not in COEFFICIENTS:
        raise ValueError(f"no closed form for state kind {kind}")
    (a, b, c, d), j = COEFFICIENTS[kind]
    phi, t, r = config.phi, config.loss_t, config.loss_r
    t2, r2 = t * t, r * r
    sin_half2 = math.sin(0.5 * phi) ** 2
    cos_half2 = math.cos(0.5 * phi) ** 2
    x = t2 * cos_half2 + r2
    p = alpha2 * t2 * sin_half2
    q = alpha2 * x - 0.5 * j * math.pi
    p_prime = 0.5 * alpha2 * t2 * math.sin(phi)
    x_prime = -0.5 * t2 * math.sin(phi)
    az = math.sqrt(alpha2 * zeta2)
    G = alpha2 * t2 * sin_half2 + zeta2 * t2 * cos_half2
    W = t2 * az * math.sin(phi)
    U = -t2 * math.cos(phi) + r2
    O = t2 * math.cos(phi) + r2
    T1 = O * alpha2 - W
    T2 = O * alpha2 + W
    S1 = U * zeta2 - W
    S2 = U * zeta2 + W
    G_prime = 0.5 * (alpha2 - zeta2) * t2 * math.sin(phi)
    W_prime = t2 * az * math.cos(phi)
    U_prime = t2 * math.sin(phi)
    O_prime = -t2 * math.sin(phi)
    T1_prime = O_prime * alpha2 - W_prime
    T2_prime = O_prime * alpha2 + W_prime
    S1_prime = U_prime * zeta2 - W_prime
    S2_prime = U_prime * zeta2 + W_prime
    return ClosedFormContext(
        j=j, mod_a=a, mod_b=b, mod_c=c, mod_d=d,
        alpha2=float(alpha2), zeta2=float(zeta2), phi=phi, t=t, r=r,
        p=p, q=q, x=x, p_prime=p_prime, x_prime=x_prime,
        G=G, W=W, S1=S1, S2=S2, T1=T1, T2=T2,
        G_prime=G_prime, W_prime=W_prime, S1_prime=S1_prime, S2_prime=S2_prime,
        T1_prime=T1_prime, T2_prime=T2_prime,
    )


def _cos_j(ctx: ClosedFormContext) -> float:
    return math.cos(ctx.j * math.pi)


def normalization_mps(j: int, alpha2: float) -> float:
    """Normalization of the four-component states via the paired +/- form.

    The upper sign pairs with the lower index of each pair: j = 0 and j = 1
    take +, j = 2 and j = 3 take -.
    """
    g = math.exp(-alpha2)
    if j in (0, 2):
        sign = 1.0 if j == 0 else -1.0
        total = 4.0 * (1.0 + g * g + 2.0 * sign * g * math.cos(alpha2))
    elif j in (1, 3):
        sign = 1.0 if j == 1 else -1.0
        total = 4.0 * (1.0 - g * g + 2.0 * sign * g * math.sin(alpha2))
    else:
        raise ValueError("j must be 0..3")
    return total ** -0.5


def mean_photon(ctx: ClosedFormContext) -> float:
    """Mean photon number of the input state in scalar form."""
    a2 = ctx.alpha2
    g = math.exp(-a2)
    val = (
        ctx.X * a2
        - 2.0 * a2 * ctx.Y * math.exp(-2.0 * a2) * _cos_j(ctx)
        + 2.0 * a2 * ctx.V * g * math.cos(a2 - 0.5 * ctx.j * math.pi + 0.5 * math.pi)
    )
    return ctx.norm_sq * val


def _pois(mean: float, n: int) -> float:
    """mean^n / n! with log-range safety."""
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - math.lgamma(n + 1))


def photon_prob_vacuum(ctx: ClosedFormContext, n: int) -> float:
    """P(n) at port a for (state, vacuum) inputs."""
    a2, p, q, x = ctx.alpha2, ctx.p, ctx.q, ctx.x
    base = _pois(p, n)
    x_term = ctx.X * math.exp(-p + a2) * base
    v_term = 2.0 * ((-1j) ** n * np.exp(-1j * q)).real * base * ctx.V
    y_term = 2.0 * ctx.Y * math.exp(-a2 * x) * _cos_j(ctx) * (-1.0) ** n * base
    return ctx.norm_sq * math.exp(-a2) * (x_term + v_term + y_term)


def parity_vacuum(ctx: ClosedFormContext) -> float:
    a2, p, q = ctx.alpha2, ctx.p, ctx.q
    return ctx.norm_sq * math.exp(-a2) * (
        ctx.X * math.exp(a2 - 2.0 * p)
        + 2.0 * ctx.V * math.cos(q - p)
        + 2.0 * ctx.Y * math.exp(2.0 * p - a2) * _cos_j(ctx)
    )


def parity_derivative_vacuum(ctx: ClosedFormContext) -> float:
    a2, p, q, pp = ctx.alpha2, ctx.p, ctx.q, ctx.p_prime
    return ctx.norm_sq * math.exp(-a2) * (
        -2.0 * pp * ctx.X * math.exp(a2 - 2.0 * p)
        + 4.0 * ctx.V * pp * math.sin(q - p)
        + 4.0 * pp * ctx.Y * math.exp(2.0 * p - a2) * _cos_j(ctx)
    )


def z_vacuum(ctx: ClosedFormContext) -> float:
    a2, p, q, x = ctx.alpha2, ctx.p, ctx.q, ctx.x
    return ctx.norm_sq * (
        ctx.X * math.exp(-p)
        + 2.0 * math.exp(-a2) * ctx.V * math.cos(q)
        + 2.0 * ctx.Y * math.exp(-a2 * (1.0 + x)) * _cos_j(ctx)
    )


def z_derivative_vacuum(ctx: ClosedFormContext) -> float:
    a2, p, q, x, pp, xp = ctx.alpha2, ctx.p, ctx.q, ctx.x, ctx.p_prime, ctx.x_prime
    return ctx.norm_sq * (
        -pp * ctx.X * math.exp(-p)
        + 2.0 * pp * math.exp(-a2) * ctx.V * math.sin(q)
        - 2.0 * ctx.Y * a2 * xp * math.exp(-a2 * (1.0 + x)) * _cos_j(ctx)
    )


def binary_vacuum(ctx: ClosedFormContext) -> tuple[float, float]:
    """(P(+), P(-)) for even/odd counts, (state, vacuum) inputs."""
    a2, p, q = ctx.alpha2, ctx.p, ctx.q
    out = []
    for sign in (1.0, -1.0):
        val = (
            0.5 * ctx.X * math.exp(a2) * (1.0 + sign * math.exp(-2.0 * p))
            + ctx.V * (math.cos(q + p) + sign * math.cos(q - p))
            + ctx.Y * math.exp(-a2) * (1.0 + sign * math.exp(2.0 * p)) * _cos_j(ctx)
        )
        out.append(ctx.norm_sq * math.exp(-a2) * val)
    return out[0], out[1]


def _half_j(ctx: ClosedFormContext) -> float:
    return 0.5 * ctx.j * math.pi


def parity_coherent(ctx: ClosedFormContext) -> float:
    """<Pi> for (state, coherent) inputs."""
    a, b, c, d = ctx.mod_a, ctx.mod_b, ctx.mod_c, ctx.mod_d
    pref = math.exp(-(ctx.alpha2 + ctx.zeta2))
    jp = _half_j(ctx)
    val = (
        a * a * math.exp(-2.0 * ctx.G - 2.0 * ctx.W)
        + (b * b + d * d) * math.exp(-2.0 * ctx.G)
        + c * c * math.exp(-2.0 * ctx.G + 2.0 * ctx.W)
        + pref
        * (
            2.0 * (a * b + a * d) * math.exp(ctx.S1) * math.cos(ctx.T1 - jp)
            + 2.0 * (b * c + c * d) * math.exp(ctx.S2) * math.cos(ctx.T2 - jp)
            + 2.0 * b * d * math.exp(ctx.S1 - ctx.T1) * math.cos(2.0 * ctx.W - ctx.j * math.pi)
            + 2.0 * a * c * math.exp(ctx.S1 - ctx.T1) * _cos_j(ctx)
        )
    )
    return ctx.norm_sq * val


def parity_derivative_coherent(ctx: ClosedFormContext) -> float:
    a, b, c, d = ctx.mod_a, ctx.mod_b, ctx.mod_c, ctx.mod_d
    pref = math.exp(-(ctx.alpha2 + ctx.zeta2))
    jp = _half_j(ctx)
    jpi = ctx.j * math.pi
    e1, e2, e12 = math.exp(ctx.S1), math.exp(ctx.S2), math.exp(ctx.S1 - ctx.T1)
    val = (
        a * a * math.exp(-2.0 * ctx.G - 2.0 * ctx.W) * (-2.0 * ctx.G_prime - 2.0 * ctx.W_prime)
        + (b * b + d * d) * math.exp(-2.0 * ctx.G) * (-2.0 * ctx.G_prime)
        + c * c * math.exp(-2.0 * ctx.G + 2.0 * ctx.W) * (-2.0 * ctx.G_prime + 2.0 * ctx.W_prime)
        + pref
        * (
            2.0 * (a * b + a * d) * e1 * (ctx.S1_prime * math.cos(ctx.T1 - jp) - ctx.T1_prime * math.sin(ctx.T1 - jp))
            + 2.0 * (b * c + c * d) * e2 * (ctx.S2_prime * math.cos(ctx.T2 - jp) - ctx.T2_prime * math.sin(ctx.T2 - jp))
            + 2.0 * b * d * e12 * (
                (ctx.S1_prime - ctx.T1_prime) * math.cos(2.0 * ctx.W - jpi)
                - 2.0 * ctx.W_prime * math.sin(2.0 * ctx.W - jpi)
            )
            + 2.0 * a * c * e12 * (ctx.S1_prime - ctx.T1_prime) * _cos_j(ctx)
        )
    )
    return ctx.norm_sq * val


def z_coherent(ctx: ClosedFormContext) -> float:
    """<Z> for (state, coherent) inputs."""
    a, b, c, d = ctx.mod_a, ctx.mod_b, ctx.mod_c, ctx.mod_d
    pref = math.exp(-(ctx.alpha2 + ctx.zeta2))
    jp = _half_j(ctx)
    jpi = ctx.j * math.pi
    half_s1 = 0.5 * ctx.S1 + 0.5 * ctx.zeta2
    half_s2 = 0.5 * ctx.S2 + 0.5 * ctx.zeta2
    half_bd = 0.5 * (ctx.S1 - ctx.T1) + 0.5 * (ctx.zeta2 - ctx.alpha2)
    val = (
        a * a * math.exp(-ctx.G - ctx.W)
        + (b * b + d * d) * math.exp(-ctx.G)
        + c * c * math.exp(-ctx.G + ctx.W)
        + 2.0
        * pref
        * (
            (a * b + a * d) * math.exp(half_s1) * math.cos(0.5 * (ctx.T1 + ctx.alpha2) - jp)
            + (b * c + c * d) * math.exp(half_s2) * math.cos(0.5 * (ctx.T2 + ctx.alpha2) - jp)
            + b * d * math.exp(half_bd) * math.cos(jpi - ctx.W)
            + a * c * math.exp(half_bd) * _cos_j(ctx)
        )
    )
    return ctx.norm_sq * val


def z_derivative_coherent(ctx: ClosedFormContext) -> float:
    a, b, c, d = ctx.mod_a, ctx.mod_b, ctx.mod_c, ctx.mod_d
    pref = math.exp(-(ctx.alpha2 + ctx.zeta2))
    jp = _half_j(ctx)
    jpi = ctx.j * math.pi
    e1 = math.exp(0.5 * ctx.S1 + 0.5 * ctx.zeta2)
    e2 = math.exp(0.5 * ctx.S2 + 0.5 * ctx.zeta2)
    ebd = math.exp(0.5 * (ctx.S1 - ctx.T1) + 0.5 * (ctx.zeta2 - ctx.alpha2))
    arg1 = 0.5 * (ctx.T1 + ctx.alpha2) - jp
    arg2 = 0.5 * (ctx.T2 + ctx.alpha2) - jp
    val = (
        a * a * math.exp(-ctx.G - ctx.W) * (-ctx.G_prime - ctx.W_prime)
        + (b * b + d * d) * math.exp(-ctx.G) * (-ctx.G_prime)
        + c * c * math.exp(-ctx.G + ctx.W) * (-ctx.G_prime + ctx.W_prime)
        + 2.0
        * pref
        * (
            (a * b + a * d) * (0.5 * ctx.S1_prime * e1 * math.cos(arg1) - 0.5 * ctx.T1_prime * e1 * math.sin(arg1))
            + (b * c + c * d) * (0.5 * ctx.S2_prime * e2 * math.cos(arg2) - 0.5 * ctx.T2_prime * e2 * math.sin(arg2))
            + b * d * (
                0.5 * (ctx.S1_prime - ctx.T1_prime) * ebd * math.cos(jpi - ctx.W)
                + ctx.W_prime * ebd * math.sin(jpi - ctx.W)
            )
            + 0.5 * (ctx.S1_prime - ctx.T1_prime) * a * c * ebd * _cos_j(ctx)
        )
    )
    return ctx.norm_sq * val


def binary_coherent(ctx: ClosedFormContext) -> tuple[float, float]:
    """(P(+), P(-)) for (state, coherent) inputs."""
    a, b, c, d = ctx.mod_a, ctx.mod_b, ctx.mod_c, ctx.mod_d
    pref = math.exp(-(ctx.alpha2 + ctx.zeta2))
    jpi = ctx.j * math.pi
    q, p = ctx.q, ctx.p
    out = []
    for sign in (1.0, -1.0):
        val = (
            a * a * 0.5 * (1.0 + sign * math.exp(-2.0 * ctx.G - 2.0 * ctx.W))
            + (b * b + d * d) * 0.5 * (1.0 + sign * math.exp(-2.0 * ctx.G))
            + c * c * 0.5 * (1.0 + sign * math.exp(-2.0 * ctx.G + 2.0 * ctx.W))
            + pref
            * (
                (a * b + a * d)
                * (math.exp(ctx.zeta2) * math.cos(q + p) + sign * math.exp(ctx.S1) * math.cos(q - p - ctx.W))
                + (b * c + c * d)
                * (math.exp(ctx.zeta2) * math.cos(q + p) + sign * math.exp(ctx.S2) * math.cos(q - p + ctx.W))
                + b * d
                * (
                    math.exp(ctx.zeta2 - ctx.alpha2) * math.cos(jpi)
                    + sign * math.exp(ctx.S1 - ctx.T1) * math.cos(jpi - 2.0 * ctx.W)
                )
                + a * c * (math.exp(ctx.zeta2 - ctx.alpha2) + sign * math.exp(ctx.S1 - ctx.T1)) * math.cos(jpi)
            )
        )
        out.append(ctx.norm_sq * val)
    return out[0], out[1]


def _transfer_amplitudes(ctx: ClosedFormContext) -> np.ndarray:
    """Four-mode amplitudes of the four components, from the scalar map.

    Rebuilt from the per-symbol amplitude expressions (theta, sigma, rbar and
    their second-input shifts) rather than the transfer matrix, so this path
    cross-checks the interferometer module.
    """
    alpha = math.sqrt(ctx.alpha2)
    zeta = math.sqrt(ctx.zeta2)
    phi, t, r = ctx.phi, ctx.t, ctx.r
    half = np.exp(0.5j * phi)
    theta = 1j * t * half * math.sin(0.5 * phi)
    sigma = 1j * t * half * math.cos(0.5 * phi)
    rbar = 1j * r / math.sqrt(2.0)
    theta_p = -1j * t * zeta * half * math.sin(0.5 * phi)
    sigma_p = 1j * t * zeta * half * math.cos(0.5 * phi)
    rbar_p = -r * np.exp(1j * phi) * zeta / math.sqrt(2.0)
    comps = np.array([alpha, 1j * alpha, -alpha, -1j * alpha])
    amps = np.empty((4, 4), dtype=complex)
    amps[:, 0] = comps * theta + sigma_p
    amps[:, 1] = comps * sigma + theta_p
    amps[:, 2] = comps * rbar * np.exp(1j * phi) + rbar_p
    amps[:, 3] = 1j * comps * rbar + rbar * zeta
    return amps


def photon_prob_coherent(ctx: ClosedFormContext, n: int) -> float:
    """P(n) at port a for (state, coherent) inputs, from the shifted amplitudes."""
    amps = _transfer_amplitudes(ctx)
    coeffs = np.array(
        [1.0, (-1j) ** ctx.j, (-1j) ** (2 * ctx.j), (-1j) ** (3 * ctx.j)], dtype=complex
    ) * np.array([ctx.mod_a, ctx.mod_b, ctx.mod_c, ctx.mod_d])
    val = 0.0
    for m in range(4):
        inten = abs(amps[m, 0]) ** 2
        val += abs(coeffs[m]) ** 2 * math.exp(-inten) * _pois(inten, n)
    pref = math.exp(-(ctx.alpha2 + ctx.zeta2))
    for m in range(4):
        for k in range(m + 1, 4):
            if coeffs[m] == 0 or coeffs[k] == 0:
                continue
            bilinear = np.sum(amps[m, 1:] * np.conj(amps[k, 1:]))
            z = amps[m, 0] * np.conj(amps[k, 0])
            zn = z**n / math.exp(math.lgamma(n + 1)) if z != 0 else (1.0 if n == 0 else 0.0)
            cross = coeffs[m] * np.conj(coeffs[k]) * np.exp(bilinear) * zn
            val += pref * 2.0 * cross.real
    return ctx.norm_sq * val


def wigner_closed_form(kind: StateKind, alpha: complex, lam: complex) -> float:
    """Phase-space distribution of the input state in scalar form."""
    if kind not in COEFFICIENTS:
        raise ValueError(f"no closed form for state kind {kind}")
    (a, b, c, d), j = COEFFICIENTS[kind]
    x1, x2 = alpha.real, alpha.imag
    y1, y2 = lam.real, lam.imag
    a2 = abs(alpha) ** 2
    l2 = abs(lam) ** 2
    p1 = x1 * y1 + x2 * y2
    q1 = x1 * y2 - x2 * y1
    u = 2.0 * (p1 - q1)
    ubar = 2.0 * (p1 + q1)
    v = -2.0 * l2 - a2
    u_p = a2 + 0.5 * j * math.pi
    s = -2.0 * (a2 + l2)
    jpi = j * math.pi
    total = (
        math.exp(s)
        * (
            a * a * math.exp(4.0 * p1)
            + b * b * math.exp(4.0 * q1)
            + c * c * math.exp(-4.0 * p1)
            + d * d * math.exp(-4.0 * q1)
        )
        + 2.0 * a * b * math.exp(ubar + v) * math.cos(ubar - u_p)
        + 2.0 * a * d * math.exp(u + v) * math.cos(u - u_p)
        + 2.0 * math.exp(-2.0 * l2) * (a * c * math.cos(4.0 * q1 - jpi) + b * d * math.cos(4.0 * p1 - jpi))
        + 2.0 * c * d * math.exp(-ubar + v) * math.cos(ubar + u_p)
        + 2.0 * b * c * math.exp(-u + v) * math.cos(u + u_p)
    )
    return 2.0 * _norm_sq((a, b, c, d), j, a2) / math.pi * total
