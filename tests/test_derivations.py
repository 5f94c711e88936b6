"""The first rows of a symbolic derivation ledger: the code's own closed-form
kernels, called on sympy symbols, against their definitions.

The kernels are arithmetic only (no domain test, no type branch and no
profile call; a guard in test_domains.py keeps them so), so each returns
its expression.  Their float constants (2.0, 3.0, 8.0, ...) are small
integers, which nsimplify turns back into exact rationals before sympy
cancels a difference, a rational function of the symbols, to 0.

The extremal map h^lam(z) = (z + lam/conj(z))/(1 + lam) is
e^(i theta) (rho + lam/rho)/(1 + lam) on C_rho, so its quadratic mean is
U = ((rho^2 + lam)/((1 + lam) rho))^2, which L_lam annihilates and K_lam
maps to 0.
"""

import sympy as sp

from annulus_harmonics.bounds import _mode_form_certificate, _mode_form_certificate_expanded
from annulus_harmonics.operators import _endpoint_form, _identity_pair, _on_jet

lam = sp.Symbol("lambda", real=True)
rho, R = sp.symbols("rho R", positive=True)
theta = sp.Symbol("theta", real=True)
n = sp.Symbol("n", positive=True, integer=True)
DEN = rho**2 + lam
U = (DEN / ((1 + lam) * rho)) ** 2


def vanishes(expr) -> bool:
    """Whether expr, a rational function or the Abs of one, is 0."""
    return sp.cancel(sp.nsimplify(expr.replace(sp.Abs, lambda x: x), rational=True)) == 0


def jet(P):
    return P, sp.diff(P, rho), sp.diff(P, rho, 2)


def L(P):
    """L_lam[P] by the code's kernel."""
    return _on_jet(lam, rho, DEN, *jet(P))


def circle_mean(f):
    """The mean of f over theta: the trapezoid rule on 3 angles, exact for
    the trigonometric polynomials of degree <= 2 that h^lam's fields give."""
    return sum(f.subs(theta, 2 * sp.pi * k / 3) for k in range(3)) / 3


def test_the_operator_annihilates_the_extremal_mean():
    assert vanishes(L(U))


def test_both_identity_right_sides_equal_the_operator_on_the_extremal_mean():
    """_identity_pair's residuals |L_lam[U] - right side| vanish when the
    four circle means are those of h^lam itself."""
    h = sp.exp(sp.I * theta) * (rho + lam / rho) / (1 + lam)
    h_rho, h_theta = sp.diff(h, rho), sp.diff(h, theta)
    A = circle_mean(h * sp.conjugate(h))
    B = circle_mean(sp.re(sp.conjugate(h) * h_rho))
    C = circle_mean(h_rho * sp.conjugate(h_rho))
    D = circle_mean(h_theta * sp.conjugate(h_theta))
    assert vanishes(A - U)
    gradient, angular = _identity_pair(lam, rho, DEN, *jet(U), A, B, C, D)
    assert vanishes(gradient) and vanishes(angular)


def test_the_endpoint_form_vanishes_on_the_extremal_mean():
    u_R = U.subs(rho, R)
    assert vanishes(_endpoint_form(lam, R, u_R, U.subs(rho, 1), sp.diff(U, rho).subs(rho, 1)))


def test_the_endpoint_form_is_the_weighted_integral_of_the_operator():
    """K_lam[P] = integral_1^R rho (R^2 - rho^2)/(rho^2 + lam) L_lam[P] drho,
    for P = rho^-2, whose L_lam[P] is not 0."""
    P = rho**-2
    integral = sp.integrate(sp.cancel(sp.nsimplify(rho * (R**2 - rho**2) / DEN * L(P))),
                            (rho, 1, R))
    endpoint = _endpoint_form(lam, R, P.subs(rho, R), P.subs(rho, 1), sp.diff(P, rho).subs(rho, 1))
    assert vanishes(endpoint - integral)


def test_the_mode_certificate_expands_to_its_expanded_form():
    difference = _mode_form_certificate(n, R) - _mode_form_certificate_expanded(n, R)
    assert sp.expand(sp.powsimp(sp.expand(sp.nsimplify(difference, rational=True)))) == 0
