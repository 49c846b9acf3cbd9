"""The closed-form contact/Liouville data of both domain families.

Registered with analytic exterior derivatives, and the maps between charts
with closed-form Jacobians, so residuals measure transcription, not
discretization; finite differences cross-validate.
Coordinate order fixes index conventions per chart and is documented on
each chart.
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import (
    Chart,
    DifferentialForm,
    VectorField,
    check_nondegenerate,
    contact_volume,
    exterior_derivative,
    fd_convergence_ratio,
    max_abs,
    max_value_deviation,
    pullback,
    pullback_value,
    solve_liouville,
    solve_reeb,
    symplectic_frame,
)

# ---------------------------------------------------------------- charts

# torus-bundle model on R^3, coordinates (x, y, z)
TB3 = Chart("torus-bundle-3d", ("x", "y", "z"),
            [(-0.5, 1.5), (-0.5, 1.5), (-1.0, 1.0)],
            periodic=(True, True, False))

# its symplectization slab, coordinates (s, x, y, z)
TB4 = Chart("torus-bundle-4d", ("s", "x", "y", "z"),
            [(-1.0, 1.0), (-0.5, 1.5), (-0.5, 1.5), (-1.0, 1.0)],
            periodic=(False, True, True, False))

# Fermi chart around a geodesic, coordinates (r, t, theta)
FERMI3 = Chart("fermi-3d", ("r", "t", "theta"),
               [(-1.2, 1.2), (-1.2, 1.2), (0.0, 2 * math.pi)],
               periodic=(False, False, True))

# exponential-coordinate McDuff slab, coordinates (s, r, t, theta)
MCDUFF4 = Chart("mcduff-4d", ("s", "r", "t", "theta"),
                [(-0.8, 0.8), (-1.0, 1.0), (-1.0, 1.0), (0.0, 2 * math.pi)],
                periodic=(False, False, False, True))

# radial-coordinate McDuff slab, coordinates (rho, r, t, theta), rho > 0
MCDUFFRAD = Chart("mcduff-radial-4d", ("rho", "r", "t", "theta"),
                  [(0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0), (0.0, 2 * math.pi)],
                  periodic=(False, False, False, True))

# upper half-plane picture, coordinates (x, y, phi), y > 0
HALFPLANE3 = Chart("halfplane-3d", ("x", "y", "phi"),
                   [(-1.5, 1.5), (0.3, 3.0), (0.0, 2 * math.pi)],
                   periodic=(False, False, True))

# tubular neighbourhood of a geodesic conormal, coordinates (r, t, x, y)
GEODNBHD4 = Chart("geodesic-nbhd-4d", ("r", "t", "x", "y"),
                  [(-0.4, 0.4), (-1.0, 1.0), (0.4, 1.6), (-0.35, 0.35)],
                  periodic=(False, True, False, False))

# covers of the torus-bundle domain, coordinates (s, x, y, z)
COVER4 = Chart("cover-4d", ("s", "x", "y", "z"),
               [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])

# target of the T^2-cover symplectomorphism, coordinates (x, y, a, b)
TSTAR_T2 = Chart("tstar-torus", ("x", "y", "a", "b"),
                 [(-0.5, 1.5), (-0.5, 1.5), (-4.0, 4.0), (0.1, 8.0)],
                 periodic=(True, True, False, False))


# ------------------------------------------------- torus-bundle forms

def _alpha_pm(sign):
    return DifferentialForm(
        TB3, 1,
        comps={
            (0,): lambda p, s=sign: s * np.exp(p[2]),
            (1,): lambda p: np.exp(-p[2]),
        },
        d_comps={
            (0, 2): lambda p, s=sign: -s * np.exp(p[2]),
            (1, 2): lambda p: np.exp(-p[2]),
        },
        name="alpha_%s" % ("plus" if sign > 0 else "minus"),
    )


ALPHA_PLUS = _alpha_pm(+1)
ALPHA_MINUS = _alpha_pm(-1)

REEB_PLUS = VectorField(
    TB3,
    (
        lambda p: 0.5 * np.exp(-p[2]),
        lambda p: 0.5 * np.exp(p[2]),
        lambda p: 0.0,
    ),
    name="R_plus",
)

REEB_MINUS = VectorField(
    TB3,
    (
        lambda p: -0.5 * np.exp(-p[2]),
        lambda p: 0.5 * np.exp(p[2]),
        lambda p: 0.0,
    ),
    name="R_minus",
)

LAMBDA_TB = DifferentialForm(
    TB4, 1,
    comps={
        (1,): lambda p: 2.0 * np.sinh(p[0]) * np.exp(p[3]),
        (2,): lambda p: 2.0 * np.cosh(p[0]) * np.exp(-p[3]),
    },
    d_comps={
        (0, 1): lambda p: 2.0 * np.cosh(p[0]) * np.exp(p[3]),
        (1, 3): lambda p: -2.0 * np.sinh(p[0]) * np.exp(p[3]),
        (0, 2): lambda p: 2.0 * np.sinh(p[0]) * np.exp(-p[3]),
        (2, 3): lambda p: 2.0 * np.cosh(p[0]) * np.exp(-p[3]),
    },
    name="lambda_torus_bundle",
)

X0_TB = VectorField(
    TB4,
    (
        lambda p: np.tanh(2 * p[0]),
        lambda p: 0.0,
        lambda p: 0.0,
        lambda p: -1.0 / np.cosh(2 * p[0]),
    ),
    name="X0",
)

THETA_TB = DifferentialForm(TB4, 1, comps={(3,): lambda p: 1.0}, name="dz")
ANOSOV_TB = VectorField(TB4, (lambda p: 0.0,) * 3 + (lambda p: 1.0,), name="X_anosov")

# degenerate control input for the nondegeneracy check
LAMBDA_DS = DifferentialForm(TB4, 1, comps={(0,): lambda p: 1.0},
                             d_comps={}, name="ds")


# ------------------------------------------------------- McDuff forms

ALPHA_CAN_FERMI = DifferentialForm(
    FERMI3, 1,
    comps={
        (0,): lambda p: np.cos(p[2]),
        (1,): lambda p: np.cosh(p[0]) * np.sin(p[2]),
    },
    d_comps={
        (0, 1): lambda p: np.sinh(p[0]) * np.sin(p[2]),
        (0, 2): lambda p: np.sin(p[2]),
        (1, 2): lambda p: -np.cosh(p[0]) * np.cos(p[2]),
    },
    name="alpha_can_fermi",
)

ALPHA_PRE_FERMI = DifferentialForm(
    FERMI3, 1,
    comps={
        (1,): lambda p: np.sinh(p[0]),
        (2,): lambda p: 1.0,
    },
    d_comps={(0, 1): lambda p: np.cosh(p[0])},
    name="alpha_pre_fermi",
)

REEB_PRE_FERMI = VectorField(
    FERMI3, (lambda p: 0.0, lambda p: 0.0, lambda p: 1.0), name="R_pre"
)

REEB_CAN_FERMI = VectorField(
    FERMI3,
    (
        lambda p: np.cos(p[2]),
        lambda p: np.sin(p[2]) / np.cosh(p[0]),
        lambda p: -np.tanh(p[0]) * np.sin(p[2]),
    ),
    name="R_can",
)

# the Anosov direction spanning ker(alpha_can) /\ ker(alpha_pre), scaled so
# i_X d(alpha_can) = -alpha_pre and i_X d(alpha_pre) = -alpha_can
ANOSOV_FERMI = VectorField(
    FERMI3,
    (
        lambda p: -np.sin(p[2]),
        lambda p: np.cos(p[2]) / np.cosh(p[0]),
        lambda p: -np.tanh(p[0]) * np.cos(p[2]),
    ),
    name="X_anosov_fermi",
)

LAMBDA_MCDUFF = DifferentialForm(
    MCDUFF4, 1,
    comps={
        (1,): lambda p: np.exp(p[0]) * np.cos(p[3]),
        (2,): lambda p: np.exp(-p[0]) * np.sinh(p[1])
        + np.exp(p[0]) * np.cosh(p[1]) * np.sin(p[3]),
        (3,): lambda p: np.exp(-p[0]),
    },
    d_comps={
        (0, 1): lambda p: np.exp(p[0]) * np.cos(p[3]),
        (1, 3): lambda p: np.exp(p[0]) * np.sin(p[3]),
        (0, 2): lambda p: -np.exp(-p[0]) * np.sinh(p[1])
        + np.exp(p[0]) * np.cosh(p[1]) * np.sin(p[3]),
        (1, 2): lambda p: np.exp(-p[0]) * np.cosh(p[1])
        + np.exp(p[0]) * np.sinh(p[1]) * np.sin(p[3]),
        (2, 3): lambda p: -np.exp(p[0]) * np.cosh(p[1]) * np.cos(p[3]),
        (0, 3): lambda p: -np.exp(-p[0]),
    },
    name="lambda_mcduff",
)

X_LAMBDA_MCDUFF = VectorField(
    MCDUFF4,
    (
        lambda p: np.tanh(2 * p[0]),
        lambda p: np.sin(p[3]) / np.cosh(2 * p[0]),
        lambda p: -np.cos(p[3]) / (np.cosh(2 * p[0]) * np.cosh(p[1])),
        lambda p: np.tanh(p[1]) * np.cos(p[3]) / np.cosh(2 * p[0]),
    ),
    name="X_lambda",
)


def lambda_deformation(tau):
    """lambda_tau = rho alpha_can + (tau/rho + 1 - tau) alpha_pre."""
    def w(p):
        return tau / p[0] + 1.0 - tau

    return DifferentialForm(
        MCDUFFRAD, 1,
        comps={
            (1,): lambda p: p[0] * np.cos(p[3]),
            (2,): lambda p: p[0] * np.cosh(p[1]) * np.sin(p[3])
            + w(p) * np.sinh(p[1]),
            (3,): lambda p: w(p),
        },
        d_comps={
            (0, 1): lambda p: np.cos(p[3]),
            (0, 2): lambda p: np.cosh(p[1]) * np.sin(p[3])
            - tau / p[0] ** 2 * np.sinh(p[1]),
            (0, 3): lambda p: -tau / p[0] ** 2,
            (1, 3): lambda p: p[0] * np.sin(p[3]),
            (1, 2): lambda p: p[0] * np.sinh(p[1]) * np.sin(p[3])
            + w(p) * np.cosh(p[1]),
            (2, 3): lambda p: -p[0] * np.cosh(p[1]) * np.cos(p[3]),
        },
        name="lambda_tau_%g" % tau,
    )


LAMBDA_SIGMA = lambda_deformation(0.0)  # r alpha_can + alpha_pre

# e^s lambda under sqrt(rho) = e^s equals lambda_sigma; the exponential
# normalization itself lives on MCDUFF4 as LAMBDA_MCDUFF

LAMBDA_C = DifferentialForm(
    GEODNBHD4, 1,
    comps={
        (0,): lambda p: p[2],
        (1,): lambda p: np.cosh(p[0]) * p[3] + np.sinh(p[0]),
        (2,): lambda p: -p[3] / (p[2] ** 2 + p[3] ** 2),
        (3,): lambda p: p[2] / (p[2] ** 2 + p[3] ** 2),
    },
    d_comps={
        (0, 1): lambda p: np.sinh(p[0]) * p[3] + np.cosh(p[0]),
        (0, 2): lambda p: -1.0,
        (1, 3): lambda p: -np.cosh(p[0]),
    },
    name="lambda_C",
)


# --------------------------------------------- half-plane and actions

ALPHA_CAN_H = DifferentialForm(
    HALFPLANE3, 1,
    comps={
        (0,): lambda p: np.cos(p[2]) / p[1],
        (1,): lambda p: np.sin(p[2]) / p[1],
    },
    d_comps={
        (0, 1): lambda p: np.cos(p[2]) / p[1] ** 2,
        (0, 2): lambda p: np.sin(p[2]) / p[1],
        (1, 2): lambda p: -np.cos(p[2]) / p[1],
    },
    name="alpha_can_halfplane",
)

ALPHA_PRE_H = DifferentialForm(
    HALFPLANE3, 1,
    comps={
        (0,): lambda p: 1.0 / p[1],
        (2,): lambda p: 1.0,
    },
    d_comps={(0, 1): lambda p: 1.0 / p[1] ** 2},
    name="alpha_pre_halfplane",
)


def fermi_to_halfplane_point(p):
    r, t, theta = p
    return np.array(
        [
            np.tanh(r) * np.exp(t),
            np.exp(t) / np.cosh(r),
            theta - np.atan(np.sinh(r)),
        ]
    )


def fermi_to_halfplane_jac(p):
    """Rows d(x, y, phi) / d(r, t, theta) of fermi_to_halfplane_point; the
    angle uses d atan(sinh r) / dr = 1 / cosh r."""
    r, t, theta = p
    et, sech = np.exp(t), 1.0 / np.cosh(r)
    x, y = np.tanh(r) * et, et * sech
    return [[y * sech, x, 0.0], [-x * sech, y, 0.0], [-sech, 0.0, 1.0]]


def t_tau_action(tau):
    return lambda p: np.array([p[0] + tau, p[1], p[2]])


def s_action_fermi(p):
    return np.array([-p[0], -p[1], p[2] + math.pi])


# ------------------------------------------------------- cover checks

LAMBDA_COVER_V1 = DifferentialForm(
    COVER4, 1,
    comps={
        (1,): lambda p: np.sinh(p[0]) * np.exp(p[3]),
        (2,): lambda p: np.cosh(p[0]) * np.exp(-p[3]),
    },
    d_comps={
        (0, 1): lambda p: np.cosh(p[0]) * np.exp(p[3]),
        (1, 3): lambda p: -np.sinh(p[0]) * np.exp(p[3]),
        (0, 2): lambda p: np.sinh(p[0]) * np.exp(-p[3]),
        (2, 3): lambda p: np.cosh(p[0]) * np.exp(-p[3]),
    },
    name="lambda_cover_v1",
)

LAMBDA_COVER_V2 = DifferentialForm(
    COVER4, 1,
    comps={
        (1,): lambda p: np.sinh(p[0]) * np.exp(-p[3]),
        (2,): lambda p: np.cosh(p[0]) * np.exp(p[3]),
    },
    name="lambda_cover_v2",
)

LAMBDA_CAN_T2 = DifferentialForm(
    TSTAR_T2, 1,
    comps={
        (0,): lambda p: p[2],
        (1,): lambda p: p[3],
    },
    name="a_dx_plus_b_dy",
)


def theta_trivialization(p):
    """Fiber trivialization of the V' cover: (s,x,y,z) -> (s, D_z^{-1}(x,y), z)."""
    s, x, y, z = p
    return np.array([s, np.exp(-z) * x, np.exp(z) * y, z])


def theta_trivialization_jac(p):
    """Rows of d(theta_trivialization) / d(s, x, y, z)."""
    s, x, y, z = p
    em, ep = np.exp(-z), np.exp(z)
    return [[1.0, 0.0, 0.0, 0.0], [0.0, em, 0.0, -em * x],
            [0.0, 0.0, ep, ep * y], [0.0, 0.0, 0.0, 1.0]]


def psi0_map(p):
    """(s,x,y,z) -> (x, y, a, b) with (a,b) = (sinh s e^{-z}, cosh s e^{z})."""
    s, x, y, z = p
    return np.array([x, y, np.sinh(s) * np.exp(-z),
                     np.cosh(s) * np.exp(z)])


def psi0_jac(p):
    """Rows of d(psi0_map) / d(s, x, y, z)."""
    s, x, y, z = p
    a, b = np.sinh(s) * np.exp(-z), np.cosh(s) * np.exp(z)
    return [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
            [np.cosh(s) * np.exp(-z), 0.0, 0.0, -a],
            [np.sinh(s) * np.exp(z), 0.0, 0.0, b]]


# ------------------------------------------------------------- suites
# Each suite draws its n x d sample `pts` and evaluates every per-sample
# check once on the whole sample `pts.T`; the finite-difference checks
# (fd-ratio, d2) take their few points one at a time.

def _check(name, value, tol):
    return {"check": name, "max_residual": float(value), "pass": bool(value <= tol)}


def _columns(samples, dim):
    """The coordinate arrays of a sample of n >= 0 points (n x dim)."""
    return np.asarray(samples, dtype=float).reshape(len(samples), dim).T


def check_geiges(alpha_minus, alpha_plus, samples, h=1e-5):
    """Geiges-pair identities on a 3-chart over a sample (n x 3), plus a
    sign report."""
    if alpha_minus.chart.dim != 3:
        raise ValueError("Geiges check needs a 3-dimensional chart")
    p = _columns(samples, 3)
    vp, vm = alpha_plus.value(p), alpha_minus.value(p)
    dp = exterior_derivative(alpha_plus, p, h)
    dm = exterior_derivative(alpha_minus, p, h)
    pp = contact_volume(vp, dp)
    signs = np.copysign(1.0, pp)
    constant = signs.size > 0 and bool(signs.min() == signs.max())
    return {
        "sum_residual": max_abs(pp + contact_volume(vm, dm)),
        "mixed_residual": max(max_abs(contact_volume(vm, dp)),
                              max_abs(contact_volume(vp, dm))),
        "volume_sign_constant": constant,
        "volume_sign": float(signs.max()) if constant else 0.0,
    }


def run_suite(suite, samples=1000, tol=1e-8, seed=7):
    """Named verification batteries; returns a list of check dicts."""
    if samples < 1:
        raise ValueError("a suite needs at least one sample, got %r" % samples)
    if suite == "torus-bundle":
        return _suite_torus_bundle(samples, tol, seed)
    if suite == "mcduff-fermi":
        return _suite_mcduff_fermi(samples, tol, seed)
    if suite == "mcduff-halfplane":
        return _suite_mcduff_halfplane(samples, tol, seed)
    if suite == "covers":
        return _suite_covers(samples, tol, seed)
    raise ValueError("unknown suite %r" % suite)


def psl2_invariance(form, element, samples, tau=1.0):
    """Max |g^* form - form| over a sample (n x 3) for a generator of
    PSL(2, R).

    element: "T" (horizontal translation by tau; half-plane charts),
    "S" (the order-two rotation; Fermi charts), or "identity".  The chart
    actions are affine, so their Jacobians are supplied exactly."""
    if element == "T":
        act = t_tau_action(tau)
        jac = lambda p: np.eye(3)
    elif element == "S":
        act = s_action_fermi
        jac = lambda p: np.diag([-1.0, -1.0, 1.0])
    elif element == "identity":
        act = lambda p: p
        jac = lambda p: np.eye(3)
    else:
        raise ValueError("element must be 'T', 'S' or 'identity'")
    p = _columns(samples, 3)
    return max_value_deviation(pullback(act, form, p, jac), form.value(p))


def _suite_torus_bundle(samples, tol, seed):
    checks = []
    pts3 = TB3.sample_points(samples, seed, margin=1e-4)
    p3 = pts3.T
    g = check_geiges(ALPHA_MINUS, ALPHA_PLUS, pts3)
    checks.append(_check("tb.geiges.sum", g["sum_residual"], tol))
    checks.append(_check("tb.geiges.mixed", g["mixed_residual"], tol))
    checks.append(
        {"check": "tb.geiges.sign", "max_residual": 0.0,
         "pass": g["volume_sign_constant"] and g["volume_sign"] > 0}
    )
    checks.append(_check("tb.reeb.plus", max_abs(
        solve_reeb(ALPHA_PLUS, p3) - REEB_PLUS.value(p3)), tol))
    checks.append(_check("tb.reeb.minus", max_abs(
        solve_reeb(ALPHA_MINUS, p3) - REEB_MINUS.value(p3)), tol))

    pts4 = TB4.sample_points(samples, seed + 1, margin=1e-4)
    p4 = pts4.T
    checks.append(_check("tb.liouville.X0", max_abs(
        solve_liouville(LAMBDA_TB, p4) - X0_TB.value(p4)), tol))
    checks.append(
        {"check": "tb.nondegenerate", "max_residual": 0.0,
         "pass": check_nondegenerate(LAMBDA_TB, pts4) > 1e-6}
    )
    checks.append(
        {"check": "tb.degenerate-control", "max_residual": 0.0,
         "pass": check_nondegenerate(LAMBDA_DS, pts4[:50]) < 1e-12}
    )

    frame, pairing, th_corr = symplectic_frame(LAMBDA_TB, THETA_TB, ANOSOV_TB,
                                               pts4[:100].T)
    worst_frame = max(max_abs(pairing[0, 1] - 1.0), max_abs(pairing[2, 3] - 1.0),
                      max_abs(sum(th_corr * frame[1])))
    if np.any(np.abs(np.linalg.det(np.moveaxis(pairing, -1, 0))) < 1e-10):
        worst_frame = float("inf")
    checks.append(_check("tb.frame", worst_frame, tol))

    ratio = fd_convergence_ratio(LAMBDA_TB, _inner(LAMBDA_TB, pts4, 1e-3, 25))
    checks.append(
        {"check": "tb.fd-ratio", "max_residual": float(ratio),
         "pass": 3.5 <= ratio <= 4.5}
    )
    checks.append(_check("tb.d2.alpha", _d2_residual(
        ALPHA_PLUS, _inner(ALPHA_PLUS, pts3, 2e-4, 25)), 1e-6))
    checks.append(_check("tb.d2.lambda", _d2_residual(
        LAMBDA_TB, _inner(LAMBDA_TB, pts4, 2e-4, 10)), 1e-6))
    return checks


def _suite_mcduff_fermi(samples, tol, seed):
    checks = []
    pts3 = FERMI3.sample_points(samples, seed, margin=1e-4)
    p3 = pts3.T
    g = check_geiges(ALPHA_PRE_FERMI, ALPHA_CAN_FERMI, pts3)
    checks.append(_check("fermi.geiges.sum", g["sum_residual"], tol))
    checks.append(_check("fermi.geiges.mixed", g["mixed_residual"], tol))
    checks.append(
        {"check": "fermi.geiges.sign", "max_residual": 0.0,
         "pass": g["volume_sign_constant"]}
    )
    checks.append(_check("fermi.reeb.pre", max_abs(
        solve_reeb(ALPHA_PRE_FERMI, p3) - REEB_PRE_FERMI.value(p3)), tol))
    checks.append(_check("fermi.reeb.can", max_abs(
        solve_reeb(ALPHA_CAN_FERMI, p3) - REEB_CAN_FERMI.value(p3)), tol))

    pts4 = MCDUFF4.sample_points(samples, seed + 1, margin=1e-4)
    p4 = pts4.T
    checks.append(_check("mcduff.liouville.X", max_abs(
        solve_liouville(LAMBDA_MCDUFF, p4) - X_LAMBDA_MCDUFF.value(p4)), tol))

    rad = MCDUFFRAD.sample_points(samples, seed + 2, margin=1e-4)
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        form = lambda_deformation(tau)
        checks.append(
            {"check": "mcduff.lambda_t.nondeg.%g" % tau, "max_residual": 0.0,
             "pass": check_nondegenerate(form, rad) > 1e-9}
        )
    # both normalizations of the radial model are Liouville on the slab
    checks.append(
        {"check": "mcduff.lambda_sigma.nondeg", "max_residual": 0.0,
         "pass": check_nondegenerate(LAMBDA_SIGMA, rad) > 1e-9}
    )
    checks.append(
        {"check": "mcduff.exp-normalization.nondeg", "max_residual": 0.0,
         "pass": check_nondegenerate(LAMBDA_MCDUFF, pts4) > 1e-9}
    )
    ratio = fd_convergence_ratio(ALPHA_CAN_FERMI,
                                 _inner(ALPHA_CAN_FERMI, pts3, 1e-3, 25))
    checks.append(
        {"check": "fermi.fd-ratio", "max_residual": float(ratio),
         "pass": 3.5 <= ratio <= 4.5}
    )
    checks.append(_check("fermi.d2.alpha", _d2_residual(
        ALPHA_CAN_FERMI, _inner(ALPHA_CAN_FERMI, pts3, 2e-4, 25)), 1e-6))
    checks.append(_check("fermi.d2.lambda", _d2_residual(
        LAMBDA_MCDUFF, _inner(LAMBDA_MCDUFF, pts4, 2e-4, 10)), 1e-6))
    return checks


def _suite_mcduff_halfplane(samples, tol, seed):
    checks = []
    p3 = FERMI3.sample_points(samples, seed, margin=1e-4).T

    # one image and one Jacobian serve both forms
    img, J = fermi_to_halfplane_point(p3), fermi_to_halfplane_jac(p3)
    for name, form, fermi in (("pre", ALPHA_PRE_H, ALPHA_PRE_FERMI),
                              ("can", ALPHA_CAN_H, ALPHA_CAN_FERMI)):
        pull = pullback_value(form.value(img), 1, J)
        checks.append(_check("halfplane.pullback." + name,
                             max_value_deviation(pull, fermi.value(p3)), tol))

    ptsh = HALFPLANE3.sample_points(samples, seed + 1, margin=1e-4)
    for tau, label in ((0.7, "0.7"), (-1.3, "-1.3")):
        worst = max(
            psl2_invariance(f, "T", ptsh, tau=tau)
            for f in (ALPHA_PRE_H, ALPHA_CAN_H)
        )
        checks.append(_check("halfplane.Ttau[%s]" % label, worst, tol))
    worst_s = max(
        psl2_invariance(f, "S", p3.T)
        for f in (ALPHA_PRE_FERMI, ALPHA_CAN_FERMI)
    )
    checks.append(_check("fermi.S-action", worst_s, tol))
    ident = psl2_invariance(ALPHA_PRE_H, "identity", ptsh[:50])
    checks.append(_check("halfplane.identity", ident, 1e-15))
    return checks


def _suite_covers(samples, tol, seed):
    checks = []
    p = COVER4.sample_points(samples, seed, margin=1e-3).T
    s, x, y, z = p
    sh, ch = np.sinh(s), np.cosh(s)

    # V' cover: pullback of lambda' under the fiber trivialization
    pull = pullback(theta_trivialization, LAMBDA_COVER_V1, p,
                    theta_trivialization_jac)
    v1_target = {(0,): 0.0, (1,): sh, (2,): ch, (3,): -(sh * x - ch * y)}
    checks.append(_check("covers.v1.trivialization",
                         max_value_deviation(pull, v1_target), tol))

    # after the (a, b) change of frame the non-exact part is a dz + b ds
    a = -sh * x + ch * y
    b = -(ch * x + sh * y)
    shifted = dict(pull)
    shifted[(0,)] = pull[(0,)] - b
    shifted[(3,)] = pull[(3,)] - a
    df_target = {(0,): ch * x + sh * y, (1,): sh, (2,): ch, (3,): 0.0}
    checks.append(_check("covers.v1.exact-primitive",
                         max_value_deviation(shifted, df_target), tol))

    # V'' cover: psi0 carries a dx + b dy back to lambda''
    res3 = max_value_deviation(pullback(psi0_map, LAMBDA_CAN_T2, p, psi0_jac),
                               LAMBDA_COVER_V2.value(p))
    checks.append(_check("covers.v2.psi0", res3, tol))

    # image avoids the zero section: b = cosh(s) e^z >= e^{-1} on the box
    min_b = float(np.min(psi0_map(p)[3]))
    checks.append(
        {"check": "covers.v2.off-zero-section", "max_residual": 0.0,
         "pass": min_b > 0.3}
    )
    # spot value: s = 0 maps to (0, e^z)
    img = psi0_map(np.array([0.0, 0.2, 0.3, 0.5]))
    spot = abs(img[2] - 0.0) + abs(img[3] - np.exp(0.5))
    checks.append(_check("covers.v2.s0-image", spot, 1e-12))
    return checks


def _inner(form, points, margin, count):
    """The first `count` points `margin` inside the form's box: one
    difference step (fd_convergence_ratio) or two (_d2_residual)."""
    return points[form.chart.contains(points.T, margin=margin)][:count]


def _d2_residual(form, points, h=1e-4):
    """max |d(d form)| via nested numeric derivatives."""
    worst = 0.0
    for p in points:
        dform = DifferentialForm(
            form.chart,
            form.degree + 1,
            comps={
                idx: (lambda q, i=idx: exterior_derivative(form, q, h,
                                                           force_numeric=True)[i])
                for idx in exterior_derivative(form, p, h, force_numeric=True)
            },
        )
        dd = exterior_derivative(dform, p, h, force_numeric=True)
        worst = max(worst, max(abs(v) for v in dd.values()))
    return worst
