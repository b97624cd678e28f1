"""High-precision oracles for the binomial GLMs, in the stdlib `decimal`.

Nothing here calls `rothman.glm`. The no-interaction model's stratum i has
cells eta = alpha_i and alpha_i + b, so with b fixed the fit splits into
one concave scalar problem per stratum: alpha_i is the root of its
stratum's score, and the profile log-likelihood is the sum of the strata's
maxima. The MLE of b is the root of the profile score (the exposed cells'
score at those alphas), and each profile-interval endpoint is the root of
the drop 2 (l(b_hat) - l(b)) minus the chi-square(1) quantile. The crude
(exposure-only) model is the same problem on the collapsed table. Every
root is found by secant steps kept inside a bracket of sign changes and
carried to `DIGITS` significant digits. `profile_interval` needs every
cell to have cases and non-cases, so that every maximum is interior and
every root exists. The profile itself (`_Profile`) also takes a stratum
with a count of 0, whose maximum may sit on an edge of its domain or at an
infinite alpha, and `endpoint_error` and `estimate_error` check an endpoint
or an estimate on such a table with no root search in b.

`odds_ratio` and `hazard_ratio` are a stratum's exact measures, for the
stratum estimates read off its two cells.

`decimal_stationary_root` is the collapsibility oracle: the stationary
point of an OR or HR along a segment, found by bisection in `decimal`;
`stationary_root_spread` is how far rounding lets a float search stray
from it.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from rothman.measures import Measure

DIGITS = 50
_WORKING = DIGITS + 10
_MAX_STEPS = 1000
_ONE = Decimal(1)
_TINY = Decimal(10) ** -(_WORKING + 5)


def _mu(link, eta):
    """The risk and its eta-derivative."""
    if link == "logit":
        mu = _ONE / (_ONE + (-eta).exp())
        return mu, mu * (_ONE - mu)
    if link == "log":
        mu = eta.exp()
        return mu, mu
    if link == "identity":
        return eta, _ONE
    t = eta.exp()
    survival = (-t).exp()
    return _ONE - survival, t * survival


def _score(link, eta, s, n):
    """The eta-derivative of a cell's s log(mu) + (n - s) log(1 - mu), and
    its limit at a risk of 0 with no cases or of 1 with no non-cases."""
    mu, dmu = _mu(link, eta)
    if s == 0:
        return -n * dmu / (_ONE - mu)
    if s == n:
        return n * dmu / mu
    return (s - n * mu) * dmu / (mu * (_ONE - mu))


def _loglik(link, eta, s, n):
    """A cell's s log(mu) + (n - s) log(1 - mu), 0 log 0 = 0."""
    mu, _ = _mu(link, eta)
    f = n - s
    return (s * mu.ln() if s else 0) + (f * (_ONE - mu).ln() if f else 0)


def _inside(x, lo, hi):
    return (lo is None or x > lo) and (hi is None or x < hi)


def _root(f, lo, hi, x, x1):
    """The root of f, decreasing on the open interval (lo, hi), None being
    an infinite end.

    Secant steps start from x and x1. A step that leaves the bracket of
    sign changes seen so far, or moves x by more than 1 + |x| (a secant
    across a flat tail can jump far past the root), bisects the bracket
    instead, or doubles the distance toward an end not yet bracketed.
    Stops when a step is below 10**-(DIGITS + 2) relative.
    """
    tol = Decimal(10) ** -(DIGITS + 2)
    previous = f_previous = None
    for _ in range(_MAX_STEPS):
        fx = f(x)
        if fx == 0:
            return x
        if fx > 0:
            lo = x if lo is None else max(lo, x)
        else:
            hi = x if hi is None else min(hi, x)
        if previous is None:
            step = x1
        elif fx != f_previous:
            step = x - fx * (x - previous) / (fx - f_previous)
        else:
            step = None
        if (step is None or not _inside(step, lo, hi)
                or abs(step - x) > 1 + abs(x)):
            if lo is None:
                step = min(hi - 1, 2 * hi)
            elif hi is None:
                step = max(lo + 1, 2 * lo)
            else:
                step = (lo + hi) / 2
        if abs(step - x) <= tol * (1 + abs(x)):
            return step
        previous, f_previous, x = x, fx, step
    raise ArithmeticError(f"no root in {_MAX_STEPS} steps")


class _Profile:
    """The profile log-likelihood kernel of b for strata of
    (s0, n0, s1, n1) counts (unexposed cases and total, exposed cases and
    total), each stratum's alpha warm-started from its last root.

    A stratum's log-likelihood is concave in alpha, so its maximum is the
    root of its score inside the domain, the alphas keeping both risks in
    [0, 1], unless the score still points out of the domain at one of its
    edges: then the maximum is on that edge (`_edge`), and its risks of 0
    or 1 add 0 log 0 = 0."""

    def __init__(self, link, strata):
        self.link = link
        self.strata = [tuple(Decimal(c) for c in row) for row in strata]
        self.alphas = [None] * len(self.strata)

    def __call__(self, b):
        """The profile log-likelihood kernel and profile score at b."""
        link = self.link
        # the alphas keeping both cells' risks in (0, 1)
        lo, hi = {"log": (None, min(Decimal(0), -b)),
                  "identity": (max(Decimal(0), -b), min(_ONE, _ONE - b)),
                  }.get(link, (None, None))
        width = _ONE if lo is None or hi is None else hi - lo
        loglik = score = Decimal(0)
        for i, (s0, n0, s1, n1) in enumerate(self.strata):
            edge = self._edge(b, lo, hi, s0, n0, s1, n1)
            if edge is not None:
                self.alphas[i] = None
                alpha, moves = edge
                if alpha is not None:  # an infinite alpha adds 0 to both
                    loglik += (_loglik(link, alpha, s0, n0)
                               + _loglik(link, alpha + b, s1, n1))
                    # an edge that pins the exposed cell alone is alpha =
                    # bound - b, and moves with b
                    score += (-_score(link, alpha, s0, n0) if moves
                              else _score(link, alpha + b, s1, n1))
                continue
            start = self.alphas[i]
            if start is None or not _inside(start, lo, hi):
                start = ((lo + hi) / 2 if lo is not None and hi is not None
                         else Decimal(0) if hi is None else hi - 1)
            nudge = width / 1000
            if hi is not None and start + nudge >= hi:
                nudge = -nudge
            alpha = _root(lambda a: (_score(link, a, s0, n0)
                                     + _score(link, a + b, s1, n1)),
                          lo, hi, start, start + nudge)
            self.alphas[i] = alpha
            loglik += (_loglik(link, alpha, s0, n0)
                       + _loglik(link, alpha + b, s1, n1))
            score += _score(link, alpha + b, s1, n1)
        return loglik, score

    def _edge(self, b, lo, hi, s0, n0, s1, n1):
        """None where the stratum's maximum at b is a root of its score,
        else the edge it sits on: its alpha, None at an infinite edge, and
        whether it moves with b. At an infinite edge both risks reach 0 (1),
        and the score points out all the way only with no cases (non-cases)
        in the stratum."""
        if lo is None and s0 + s1 == 0 or hi is None and s0 + s1 == n0 + n1:
            return None, False
        for alpha, risk, out in ((lo, 0, -1), (hi, 1, 1)):
            if alpha is None:
                continue
            # the cells on the bound, whose link-scale value is the risk
            # itself, or log 1 = 0 on the log link's one finite edge; one
            # whose count rules that risk out has a log-likelihood of -inf
            bound = risk if self.link == "identity" else Decimal(0)
            on = [(s, n) for eta, s, n in ((alpha, s0, n0),
                                           (alpha + b, s1, n1))
                  if eta == bound]
            if any(s != (0 if risk == 0 else n) for s, n in on):
                continue
            if out * (_score(self.link, alpha, s0, n0)
                      + _score(self.link, alpha + b, s1, n1)) >= 0:
                return alpha, alpha != bound
        return None


def _rows(table, terms):
    """The (s0, n0, s1, n1) counts of each stratum of ``table``, or of the
    collapsed table for the ``exposure_only`` model."""
    rows = [(c.unexposed_cases, c.unexposed_total, c.exposed_cases,
             c.exposed_total) for c in table.cells]
    if terms == "exposure_only":
        rows = [tuple(sum(column) for column in zip(*rows))]
    return rows


def _pi():
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""
    def atan_of_inverse(m):
        total, power, k = Decimal(0), _ONE / m, 1
        while power >= _TINY:
            total += power / k if k % 4 == 1 else -power / k
            power /= m * m
            k += 2
        return total
    return 16 * atan_of_inverse(Decimal(5)) - 4 * atan_of_inverse(Decimal(239))


def _erf(y, root_pi):
    """erf by its Maclaurin series."""
    total, term, n = Decimal(0), y, 0
    while abs(term) >= _TINY:
        total += term / (2 * n + 1)
        n += 1
        term = -term * y * y / n
    return 2 * total / root_pi


@functools.cache
def chi_square_quantile(level: float) -> Decimal:
    """The chi-square(1) quantile of ``Decimal(level)``, the float's exact
    value: 2 y**2 where erf(y) = level, y by Newton steps."""
    with localcontext() as ctx:
        ctx.prec = _WORKING
        p, root_pi, y = Decimal(level), _pi().sqrt(), Decimal("1.4")
        while True:
            step = (_erf(y, root_pi) - p) * root_pi / 2 * (y * y).exp()
            y -= step
            if abs(step) < Decimal(10) ** -(DIGITS + 2):
                return +(2 * y * y)


def profile_interval(table, link: str, terms: str, level: float = 0.95,
                     ) -> tuple[Decimal, Decimal, Decimal]:
    """(estimate, lower, upper) of the exposure effect on the natural scale
    (exp(b) under the ratio links), for the ``exposure_only`` or
    ``exposure_plus_stratum`` model of ``table``."""
    cut = chi_square_quantile(level)
    with localcontext() as ctx:
        ctx.prec = _WORKING
        profile = _Profile(link, _rows(table, terms))
        lo, hi = (-_ONE, _ONE) if link == "identity" else (None, None)
        b_hat = _root(lambda b: profile(b)[1], lo, hi,
                      Decimal(0), Decimal("0.01"))
        top = profile(b_hat)[0]

        def excess(b):
            return 2 * (top - profile(b)[0]) - cut

        values = [b_hat]
        for side, end in ((-1, lo), (1, hi)):
            profile(b_hat)  # warm-start the alphas at the estimate
            offset = Decimal("0.01") if end is None else min(
                Decimal("0.01"), abs(end - b_hat) / 4)
            x0, x1 = b_hat + side * offset, b_hat + 2 * side * offset
            values.append(
                _root(excess, end, b_hat, x0, x1) if side < 0
                else _root(lambda b: -excess(b), b_hat, end, x0, x1))
        if link != "identity":
            values = [v.exp() for v in values]
        ctx.prec = DIGITS
        return tuple(+v for v in values)


def endpoint_error(table, link: str, terms: str, estimate: float,
                   endpoint: float, level: float = 0.95) -> Decimal:
    """The relative error of a profile-interval ``endpoint`` on the natural
    scale, to first order, for the ``exposure_only`` or
    ``exposure_plus_stratum`` model of ``table``, counts of 0 allowed.

    With b the endpoint on the link scale, the root of drop - cut lies
    (drop(b) - cut) / drop'(b) short of b, the drop 2 (top - l(b)) and its
    slope taken from `_Profile`, so no root in b is searched for. The top
    is the profile at the ``estimate``, where it is flat, so that the
    estimate's own error enters only squared; at b's limit (an estimate of
    0 or inf, or +-1 on the identity link) it is the kernel of the observed
    cells, which the fit there reproduces.
    """
    cut = chi_square_quantile(level)
    with localcontext() as ctx:
        ctx.prec = _WORKING
        profile = _Profile(link, _rows(table, terms))
        if (abs(estimate) == 1.0 if link == "identity"
                else estimate in (0.0, math.inf)):
            top = sum(c * (c / n).ln() for s0, n0, s1, n1 in profile.strata
                      for c, n in ((s0, n0), (n0 - s0, n0), (s1, n1),
                                   (n1 - s1, n1)) if c)
        else:
            top = profile(_link_scale(link, estimate))[0]
        b = _link_scale(link, endpoint)
        loglik, score = profile(b)
        return _relative_error(
            link, endpoint, b - (2 * (top - loglik) - cut) / (-2 * score))


def estimate_error(table, link: str, terms: str, estimate: float) -> Decimal:
    """The relative error of a finite ``estimate`` on the natural scale, to
    first order, where the profile of ``table``'s ``exposure_only`` or
    ``exposure_plus_stratum`` model is smooth, counts of 0 allowed: its
    maximum lies P'(b) / -P''(b) from the estimate's b, P' from `_Profile`
    and P'' its central difference."""
    with localcontext() as ctx:
        ctx.prec = _WORKING
        profile, h = _Profile(link, _rows(table, terms)), _TINY.sqrt()
        b = _link_scale(link, estimate)
        curvature = (profile(b + h)[1] - profile(b - h)[1]) / (2 * h)
        return _relative_error(link, estimate,
                               b - profile(b)[1] / curvature)


def odds_ratio(s0, n0, s1, n1):
    """The stratum's odds ratio s1 f0 / (f1 s0), f the non-cases, as an exact
    `Fraction`, from its unexposed and exposed cases and totals; None where
    it is not a finite number."""
    if s0 == 0 or s1 == n1:
        return None
    return Fraction(s1 * (n0 - s0), (n1 - s1) * s0)


def hazard_ratio(s0, n0, s1, n1):
    """The stratum's hazard ratio ln(n1 / f1) / ln(n0 / f0), f the
    non-cases, to `DIGITS` digits; None where it is not a finite number."""
    if s0 == 0 or s1 == n1:
        return None
    if s0 == n0:  # ln(n0 / f0) is infinite
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = _WORKING
        ratio = ((Decimal(n1) / (n1 - s1)).ln()
                 / (Decimal(n0) / (n0 - s0)).ln())
        ctx.prec = DIGITS
        return +ratio


def _link_scale(link, value):
    """A natural-scale value as b on the link scale."""
    return Decimal(value) if link == "identity" else Decimal(value).ln()


def _relative_error(link, value, root):
    """How far the natural-scale ``value`` is from the link-scale ``root``,
    relative to it, to `DIGITS` digits."""
    exact = root if link == "identity" else root.exp()
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return +(abs(Decimal(value) - exact) / abs(exact))


def _link_derivatives(m, p):
    """L'(p) and L''(p) for the link L of OR (logit) or HR (cloglog)."""
    if m is Measure.ODDS_RATIO:
        slope = 1 / (p * (1 - p))
        return slope, (2 * p - 1) * slope * slope
    with localcontext() as ctx:
        ctx.prec += max(0, -p.adjusted())  # 1 - p keeps p's digits
        hazard = -(1 - p).ln()
    slope = 1 / ((1 - p) * hazard)
    return slope, (hazard - 1) * slope * slope


def decimal_stationary_root(m, a, b):
    """The t in (0, 1) where d/dt log m vanishes along a->b, to 50 digits,
    with the sign of the derivative at a; None without a sign change."""
    with localcontext() as ctx:
        ctx.prec = 50
        ax, ay, bx, by = (Decimal(v) for v in (a.x, a.y, b.x, b.y))

        def rising(t):
            # as a mean of the ends, a point keeps inside the square even
            # where 50 digits cannot hold a subnormal end's difference
            x = (1 - t) * ax + t * bx
            y = (1 - t) * ay + t * by
            return ((by - ay) * _link_derivatives(m, y)[0]
                    - (bx - ax) * _link_derivatives(m, x)[0] > 0)

        lo, hi = Decimal(0), Decimal(1)
        at_a = rising(lo)
        if at_a == rising(hi):
            return None
        for _ in range(70):
            t = (lo + hi) / 2
            if rising(t) == at_a:
                lo = t
            else:
                hi = t
        return (lo + hi) / 2, at_a


def stationary_root_spread(m, a, b, t):
    """How far rounding can move the root t of d/dt log m along a->b, to
    first order, for a search in binary64 on the points a + t(b - a).

    Such a point is a few ulps of its larger end's coordinates off the
    segment, and each link term dq*L'(q) carries a few ulps of its own; the
    slope's error E over its t-derivative dy^2 L''(y) - dx^2 L''(x) then
    bounds the root's shift, the forward error of a simple root (Higham
    2002, *Accuracy and Stability of Numerical Algorithms*, ch. 1). The
    spread is ~1e-16 on most edges; it is large only where the floats
    along an edge are coarse in t, as on a short edge beside a side of the
    square, or where the root is nearly double.
    """
    eps = Decimal(2) ** -53
    with localcontext() as ctx:
        ctx.prec = 50
        error = curvature = Decimal(0)
        for sign, (q0, q1) in ((-1, (a.x, b.x)), (1, (a.y, b.y))):
            d = Decimal(q1) - Decimal(q0)
            slope, bend = _link_derivatives(
                m, (1 - t) * Decimal(q0) + t * Decimal(q1))
            off = 4 * Decimal(math.ulp(max(q0, q1)))
            error += abs(d) * (abs(bend) * off + 8 * eps * slope)
            curvature += sign * d * d * bend
        return error / abs(curvature) if curvature else Decimal("Infinity")
