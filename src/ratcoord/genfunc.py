"""Exact univariate rational generating functions.

Polynomials are tuples of integer coefficients in ascending powers with no
trailing zeros; the empty tuple is the zero polynomial.  A RationalGF is a
ratio of integer polynomials kept in a canonical form that makes equality a
tuple comparison and guarantees the power-series expansion has integer
coefficients.  Its gcd is a primitive pseudo-remainder sequence, so the
arithmetic stays in Z[z]; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._exactlinalg import _eliminate, _null_vector, integral
from .semilinear import LinearSet

# the largest period to_quasi_polynomial looks for in a denominator
MAX_PERIOD = 360


class NotQuasiPolynomialError(ValueError):
    """The denominator has a pole that is not a root of unity."""


# ---------------------------------------------------------------------------
# polynomial helpers (private)

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _primitive(a):
    """``a`` divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    return tuple(x // g if a[-1] > 0 else -x // g for x in a)


def _prem(a, b):
    """Pseudo-remainder: the remainder of ``b[-1]**k * a`` modulo ``b`` for
    some k >= 0, so it is zero exactly when b divides a."""
    rem, lead, n = list(a), b[-1], len(b) - 1
    for top in range(len(rem) - 1, n - 1, -1):
        c = rem.pop()
        if c:
            rem = [x * lead for x in rem]
            for j in range(n):
                rem[top - n + j] -= c * b[j]
    return _trim(rem)


def _pdiv(a, b):
    """Exact quotient a / b for a primitive b that divides a; by Gauss's
    lemma it is integral, so every step divides exactly."""
    rem, lead, n = list(a), b[-1], len(b) - 1
    quo = []
    for top in range(len(rem) - 1, n - 1, -1):
        c = rem.pop() // lead
        quo.append(c)
        if c:
            for j in range(n):
                rem[top - n + j] -= c * b[j]
    return tuple(reversed(quo))


def _pgcd(a, b):
    """Primitive gcd, with positive lead, of two integer polynomials not both
    zero: a primitive remainder sequence (Knuth, TAOCP Vol. 2, 4.6.1)."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _primitive(a)


def _poly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
            continue
        mag = "z" if power == 1 else f"z^{power}"
        if c == 1:
            terms.append(mag)
        elif c == -1:
            terms.append(f"-{mag}")
        else:
            terms.append(f"{c}*{mag}")
    return " + ".join(terms).replace("+ -", "- ")


@dataclass(frozen=True)
class RationalGF:
    """Exact ratio of integer polynomials in one variable, canonical form.

    Canonical form: numerator and denominator are coprime integer
    polynomials with coprime contents, and the denominator has constant term
    +1 (so the value is an integer power series and two equal values have
    identical tuples).  Coefficients must be integers, as everywhere in the
    package (``_exactlinalg.integral``: 2.0 passes, 1/2 raises ValueError);
    the common factor is removed by an exact integer division by the
    primitive gcd.  ``RationalGF()`` is zero.
    """

    num: tuple[int, ...] = ()
    den: tuple[int, ...] = (1,)

    def __post_init__(self):
        num = _trim(integral(self.num, "coefficients"))
        den = _trim(integral(self.den, "coefficients"))
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _pgcd(num, den)  # den itself, up to its content, when num is 0
        num, den = _pdiv(num, g), _pdiv(den, g)
        if den[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")
        # With num/den coprime, the only rescaling that puts the constant
        # term of the denominator at +1 is division by that constant term;
        # both sides must come out integral or the series is not integral.
        if any(x % den[0] for x in num + den):
            raise ValueError(
                "value is not an integer power series in canonical form"
            )
        object.__setattr__(self, "num", tuple(x // den[0] for x in num))
        object.__setattr__(self, "den", tuple(x // den[0] for x in den))

    def __add__(self, other):
        if not isinstance(other, RationalGF):
            return NotImplemented
        return RationalGF(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __str__(self):
        if self.den == (1,):
            return f"({_poly_str(self.num)})"
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"


def series_coeffs(q: RationalGF, n: int) -> list[int]:
    """Power-series coefficients c_0..c_n by exact long division."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num, den = q.num, q.den
    coeffs = []
    for k in range(n + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * coeffs[k - j]
        coeffs.append(c)
    return coeffs


def gf_unambiguous_linear(l: LinearSet, i: int) -> RationalGF:
    """Generating function of coordinate-i projections of an unambiguous
    linear set: z^(b_i) divided by the product of (1 - z^(p_i)) over periods.

    Requires base projection >= 0 and every period projection >= 1 (a period
    with projection <= 0 makes the slice counts infinite); the caller is
    responsible for supplying an unambiguous set.
    """
    return gf_unambiguous_sum((l,), i)


def gf_unambiguous_sum(parts, i: int) -> RationalGF:
    """Sum of :func:`gf_unambiguous_linear` over the parts, with the same
    checks on each: the generating function of a disjoint union.

    Every part is put over the product of (1 - z^e)^m, m the largest number
    of periods with projection e in any part, and the numerators are summed,
    so the canonical form is computed once, with one gcd.
    """
    idx, shifts, projections = i - 1, [], []
    for l in parts:
        if not (0 <= idx < len(l.base)):
            raise ValueError(f"coordinate index {i} out of range")
        if l.base[idx] < 0:
            raise ValueError(f"base projection {l.base[idx]} is negative")
        for period in l.periods:
            if period[idx] < 1:
                raise ValueError(
                    f"period {period} has coordinate-{i} projection {period[idx]} < 1"
                )
        shifts.append(l.base[idx])
        projections.append([period[idx] for period in l.periods])
    top = {e: max(es.count(e) for es in projections) for e in set().union(*projections)}

    def over(poly, es):  # poly times the factors of the common denominator es lacks
        for e, m in top.items():
            for _ in range(m - es.count(e)):
                poly = _pmul(poly, (1,) + (0,) * (e - 1) + (-1,))
        return poly

    num = ()
    for b, es in zip(shifts, projections):
        num = _padd(num, over((0,) * b + (1,), es))
    return RationalGF(num, over((1,), []))


def fit_rational(prefix, max_order: int, verify_window: int) -> RationalGF:
    """Minimal-order rational function whose expansion matches the prefix.

    Searches denominator degrees t = 0, 1, ... and, within each t, the
    smallest start index for the linear recurrence; the recurrence
    coefficients are solved exactly, the numerator is reconstructed, and the
    whole prefix must be reproduced.  The last ``verify_window`` entries are
    excluded from every solve and only checked, so they are predictions.

    The system for start s is that for s + 1 plus the equation at s, so one
    elimination per order adds the equations from ``fit_end - 1`` down and
    stops at the last inconsistent start; only the start after it is tried.
    A later start with as many pivots gives the same candidate.  One with
    fewer pivots leaves the recurrence states in a proper subspace, so a
    candidate of it that explained the prefix would also satisfy a
    recurrence of lower order, which would have returned it.  The
    denominator is the integer kernel vector of the augmented pivot rows
    (scaled by the lcm of the pivots), so the fit builds no Fraction.
    """
    prefix = list(integral(prefix, "prefix terms"))
    n = len(prefix)
    if verify_window < 0 or max_order < 0:
        raise ValueError("max_order and verify_window must be nonnegative")
    if n < verify_window + 1:
        raise ValueError(
            f"need at least {verify_window + 1} terms, got {n}"
        )
    fit_end = n - verify_window
    # orders the data cannot support (fewer than 2t fitted terms) are skipped
    for t in range(min(max_order, fit_end // 2) + 1):
        # the equation prefix[k] = sum_i b_i * prefix[k - i], i = 1..t
        rows = [
            [prefix[k - i] for i in (*range(1, t + 1), 0)]
            for k in range(fit_end - 1, t - 1, -1)
        ]
        pivots, stop = _eliminate(rows, t)
        start = fit_end - stop
        # from fit_end - t + 1 on, too few equations pin the coefficients down
        if start > fit_end - t:
            continue
        kernel = _null_vector(rows, pivots, t)
        den = kernel[t:] + kernel[:t]
        num = _pmul(den, prefix[:start])[:start]  # den times the series, below start
        try:
            candidate = RationalGF(num, den)
        except ValueError:
            continue
        if series_coeffs(candidate, n - 1) == prefix:
            return candidate
    raise ValueError(
        f"no rational function of order <= {max_order} explains the prefix"
    )


@dataclass(frozen=True)
class QuasiPolynomial:
    """A sequence given by one polynomial in k per residue class mod period,
    after finitely many explicit exceptional values."""

    period: int
    residue_polynomials: tuple[tuple[Fraction, ...], ...]
    exceptional_prefix: tuple[int, ...]

    def evaluate(self, k: int):
        if k < 0:
            raise ValueError("index must be nonnegative")
        if k < len(self.exceptional_prefix):
            return self.exceptional_prefix[k]
        poly = self.residue_polynomials[k % self.period]
        value = sum(c * k**p for p, c in enumerate(poly))
        return int(value) if Fraction(value).denominator == 1 else value


def _denominator_period(den, cap):
    """Smallest P <= cap with den | (1 - z^P)^deg(den), or None.

    Such a P exists iff den is a constant times a product of cyclotomic
    polynomials Phi_n, and since 1 - z^P is the squarefree product of Phi_n
    over n | P, the smallest is the lcm of their orders n.  Phi_n has degree
    phi(n) >= sqrt(n / 2), so only the orders n <= cap with phi(n) at most
    the degree still left are tried; Phi_n is (1 - z^n) divided by Phi_d
    over the proper divisors d of n, which were all tried before it."""
    rest, period, cyclotomic = den, 1, {}
    for n in range(1, cap + 1):
        if n > 2 * (len(rest) - 1) ** 2:
            break
        if sum(math.gcd(k, n) == 1 for k in range(n)) >= len(rest):
            continue
        phi = (1,) + (0,) * (n - 1) + (-1,)
        for d in range(1, n):
            if n % d == 0:
                phi = _pdiv(phi, cyclotomic[d])
        cyclotomic[n] = phi
        while not _prem(rest, phi):
            rest, period = _pdiv(rest, phi), math.lcm(period, n)
    return period if len(rest) == 1 and period <= cap else None


def to_quasi_polynomial(q: RationalGF) -> QuasiPolynomial:
    """Closed quasi-polynomial form of the coefficient sequence.

    Requires every denominator root to be a root of unity, verified by
    finding the smallest P <= MAX_PERIOD with den | (1 - z^P)^deg(den);
    otherwise raises NotQuasiPolynomialError.  Residue polynomials are
    interpolated by fraction-free elimination of the integer rows
    ``[k^0, ..., k^D, c_k]`` and re-verified against the series.
    """
    deg_den = len(q.den) - 1
    deg_num = len(q.num) - 1 if q.num else -1
    prefix_len = max(0, deg_num - deg_den + 1)
    if deg_den == 0:
        coeffs = series_coeffs(q, max(prefix_len, 1))
        return QuasiPolynomial(1, ((),), tuple(coeffs[:prefix_len]))
    period = _denominator_period(q.den, MAX_PERIOD)
    if period is None:
        raise NotQuasiPolynomialError(
            f"denominator {q.den} has a pole that is no root of unity of "
            f"order <= {MAX_PERIOD}"
        )
    points = deg_den + 1
    extra = 2
    n_needed = prefix_len + period * (points + extra)
    coeffs = series_coeffs(q, n_needed)
    polys = []
    for r in range(period):
        ks = [
            k
            for k in range(prefix_len, n_needed + 1)
            if k % period == r
        ]
        rows = [[k**p for p in range(points)] + [coeffs[k]] for k in ks[:points]]
        # the k are distinct, so every leading minor is a nonzero Vandermonde
        # determinant and row p pivots on column p
        _eliminate(rows, points)
        poly = _trim(Fraction(row[points], row[p]) for p, row in enumerate(rows))
        for k in ks:
            value = sum(c * k**p for p, c in enumerate(poly))
            if value != coeffs[k]:
                raise RuntimeError(
                    f"quasi-polynomial check failed at index {k}"
                )
        polys.append(tuple(poly))
    return QuasiPolynomial(period, tuple(polys), tuple(coeffs[:prefix_len]))


def gf_to_json(q: RationalGF) -> dict:
    return {"num": list(q.num), "den": list(q.den)}
