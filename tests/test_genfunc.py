import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratcoord import (
    LinearSet,
    NotQuasiPolynomialError,
    QuasiPolynomial,
    RationalGF,
    SemilinearSet,
    bfs_coordination,
    fit_rational,
    gf_unambiguous_linear,
    parse_periodic_graph,
    series_coeffs,
    slice_counts,
    to_quasi_polynomial,
)
from ratcoord import genfunc
from ratcoord.genfunc import _denominator_period, _pmul, _prem, _primitive
from .conftest import BCU_TEXT, DIA_TEXT, PCU_TEXT, assert_outcome
from .test_exactlinalg import _reference_solve

SQUARE_GF = RationalGF((1, 2, 1), (1, -2, 1))  # (1+z)^2/(1-z)^2


def _times(a, b):
    """Product of two coefficient lists."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _long_division(num, den, n):
    """Series coefficients c_0..c_n of num/den by long division over the
    rationals (den[0] != 0): the oracle for the canonical form."""
    coeffs = []
    for k in range(n + 1):
        c = Fraction(num[k] if k < len(num) else 0)
        c -= sum(den[j] * coeffs[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        coeffs.append(c / den[0])
    return coeffs


def _gf_outcome(num, den):
    try:
        return RationalGF(num, den)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


nonzero = st.integers(-3, 3).filter(bool)
small_polys = st.lists(st.integers(-3, 3), max_size=3)


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-4, 4), max_size=4),
        st.builds(lambda c, tail: [c] + tail, nonzero, small_polys),
        st.builds(lambda c, tail: [c] + tail, nonzero, small_polys),
    )
    @example([1], [1, -1], [1, 2])  # common factor with leading coefficient 2
    @example([1, 1], [1, 0, -1], [2, 0, 3])
    @example([1], [2, -1], [1, 0, 3])  # not an integer series either way
    def test_common_factor_property(self, num, den, h):
        value = _gf_outcome(num, den)
        assert _gf_outcome(_times(num, h), _times(den, h)) == value
        if isinstance(value, RationalGF):
            assert value.den[0] == 1
            assert series_coeffs(value, 12) == _long_division(num, den, 12)

    def test_common_factor_cancels(self):
        # (1+z^3)/(1-z^2) and (1-z+z^2)/(1-z) are the same value
        assert RationalGF((1, 0, 0, 1), (1, 0, -1)) == RationalGF((1, -1, 1), (1, -1))

    def test_scaling_cancels(self):
        assert RationalGF((2, 2), (2, -2)) == RationalGF((1, 1), (1, -1))

    def test_zero(self):
        assert RationalGF((0, 0), (1, 5)) == RationalGF.zero()
        assert RationalGF.zero().den == (1,)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalGF((1,), (0,))

    def test_nonintegral_series_rejected(self):
        with pytest.raises(ValueError):
            RationalGF((1,), (2, -1))  # 1/(2-z) expands with fractions

    def test_z_over_z_denominator(self):
        with pytest.raises(ValueError):
            RationalGF((1,), (0, 1))  # 1/z is not a power series

    def test_idempotent(self, gf_corpus):
        for q in gf_corpus:
            again = RationalGF(q.num, q.den)
            assert again.num == q.num and again.den == q.den

    @pytest.mark.parametrize(
        "num,den",
        [((Fraction(1, 2),), (1,)), ((1,), (1, 0.5)), ((1,), (Fraction(1, 2), 1))],
        ids=["half_numerator", "float_denominator", "half_denominator"],
    )
    def test_rational_coefficients_rejected(self, num, den):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            RationalGF(num, den)


class TestAdd:
    def test_common_denominator(self):
        a = RationalGF((0, 0, 1), (1, 0, -1))
        b = RationalGF((0, 0, 0, 1), (1, 0, -1))
        assert a + b == RationalGF((0, 0, 1, 1), (1, 0, -1))

    def test_with_one(self):
        a = RationalGF((0, 0, 1), (1, 0, -1))
        b = RationalGF((0, 0, 0, 1), (1, 0, -1))
        total = RationalGF.one() + a + b
        assert total == RationalGF((1, 0, 0, 1), (1, 0, -1))
        assert series_coeffs(total, 6) == [1, 0, 1, 1, 1, 1, 1]

    def test_additive_identity(self, gf_corpus):
        for q in gf_corpus:
            assert q + RationalGF.zero() == q

    def test_commutative_associative(self, gf_corpus):
        qs = gf_corpus[:6]
        for a in qs:
            for b in qs:
                assert a + b == b + a
                for c in qs[:4]:
                    assert (a + b) + c == a + (b + c)


class TestSeries:
    def test_square(self):
        assert series_coeffs(SQUARE_GF, 5) == [1, 4, 8, 12, 16, 20]

    def test_geometric(self):
        assert series_coeffs(RationalGF((1,), (1, -1)), 3) == [1, 1, 1, 1]

    def test_matches_slice_example(self):
        q = RationalGF((1, 0, 0, 1), (1, 0, -1))
        assert series_coeffs(q, 6) == [1, 0, 1, 1, 1, 1, 1]


class TestFormula:
    def test_single_period(self):
        q = gf_unambiguous_linear(LinearSet((2, 2), ((2, 0),)), 1)
        assert q == RationalGF((0, 0, 1), (1, 0, -1))

    def test_zero_projection_period_rejected(self):
        with pytest.raises(ValueError):
            gf_unambiguous_linear(LinearSet((2, 2), ((2, 0), (0, 2))), 1)

    def test_point(self):
        assert gf_unambiguous_linear(LinearSet((2,)), 1) == RationalGF((0, 0, 1))

    def test_one_period_from_zero(self):
        q = gf_unambiguous_linear(LinearSet((0,), ((2,),)), 1)
        assert q == RationalGF((1,), (1, 0, -1))

    def test_negative_base_projection_rejected(self):
        with pytest.raises(ValueError):
            gf_unambiguous_linear(LinearSet((-1,), ((2,),)), 1)

    def test_formula_matches_enumeration(self, unambiguous_corpus):
        for l, i in unambiguous_corpus:
            coeffs = series_coeffs(gf_unambiguous_linear(l, i), 30)
            counts = slice_counts(SemilinearSet((l,)), i, 30)
            assert coeffs == counts, (l, i)

    def test_sum_equals_added_parts(self, unambiguous_corpus):
        # periods with equal projections, within a part and across parts
        extra = [(LinearSet((0, 0), ((1, 1), (1, 2), (2, 1))), 2)]
        for i in (1, 2, 3):
            parts = [l for l, j in unambiguous_corpus + extra if j == i]
            for k in range(len(parts) + 1):
                expected = RationalGF.zero()
                for l in parts[:k]:
                    expected = expected + gf_unambiguous_linear(l, i)
                assert genfunc.gf_unambiguous_sum(parts[:k], i) == expected


class TestFit:
    def test_square_prefix(self):
        prefix = [1, 4, 8, 12, 16, 20, 24, 28, 32, 36]
        assert fit_rational(prefix, 4, 3) == SQUARE_GF

    def test_constant(self):
        assert fit_rational([1, 1, 1, 1, 1, 1], 2, 2) == RationalGF((1,), (1, -1))

    def test_fibonacci(self):
        prefix = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
        assert fit_rational(prefix, 3, 2) == RationalGF((0, 1), (1, -1, -1))

    def test_polynomial_sequence(self):
        assert fit_rational([1, 0, 0, 0, 0, 0], 2, 2) == RationalGF.one()

    def test_unexplained_prefix_fails(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        with pytest.raises(ValueError, match="no rational function"):
            fit_rational(primes, 3, 3)

    def test_window_is_predicted_not_fitted(self):
        # agrees with c_k = 2c_{k-1} - c_{k-2} except in the final window
        broken = [1, 4, 8, 12, 16, 20, 24, 28, 32, 999]
        with pytest.raises(ValueError):
            fit_rational(broken, 2, 1)

    def test_round_trip(self, gf_corpus):
        for q in gf_corpus:
            prefix = series_coeffs(q, 39)
            assert fit_rational(prefix, 6, 5) == q

    @pytest.mark.parametrize(
        "prefix",
        [[Fraction(1, 2)] * 8, [1.7, 2.2, 3.9, 4.5, 5.1, 6.8, 7.0, 8.2]],
    )
    def test_nonintegral_terms_rejected(self, prefix):
        with pytest.raises(ValueError, match="integers"):
            fit_rational(prefix, 3, 2)

    def test_integral_terms_convert(self):
        prefix = [Fraction(1), 1.0, True, 1, 1, 1]
        assert fit_rational(prefix, 2, 2) == RationalGF((1,), (1, -1))


# cyclotomic polynomials Phi_1, Phi_2, Phi_3, Phi_4, Phi_6, Phi_12, the
# products 1 - z^5 and 1 + z^3, and factors with a pole off the unit circle
PERIOD_FACTORS = [
    (1, -1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 0, -1, 0, 1),
    (1, 0, 0, 0, 0, -1), (1, 0, 0, 1),
    (1, -1, -1), (1, -2), (2, 1), (1, 1, 2), (3, 0, 1),
]


def _period_by_search(den, cap):
    """Smallest P <= cap with den | (1 - z^P)^deg(den), by trying every P:
    the reference for the cyclotomic-factor search."""
    for period in range(1, cap + 1):
        base = _primitive(_prem((1,) + (0,) * (period - 1) + (-1,), den))
        power = (1,)
        for _ in range(len(den) - 1):
            power = _primitive(_prem(_pmul(power, base), den))
        if not power:
            return period
    return None


class TestQuasiPolynomial:
    def test_square(self):
        qp = to_quasi_polynomial(SQUARE_GF)
        assert qp.period == 1
        assert qp.exceptional_prefix == (1,)
        assert qp.residue_polynomials == ((Fraction(0), Fraction(4)),)
        assert [qp.evaluate(k) for k in range(6)] == [1, 4, 8, 12, 16, 20]

    def test_alternating(self):
        qp = to_quasi_polynomial(RationalGF((1,), (1, 0, -1)))
        assert qp.period == 2
        assert qp.exceptional_prefix == ()
        assert qp.residue_polynomials == ((Fraction(1),), ())
        assert [qp.evaluate(k) for k in range(5)] == [1, 0, 1, 0, 1]

    # 1 - z - z^2 (the golden ratio); 1 - z + 2z^2 and 1 + 3z^3 are not
    # monic, so the root-of-unity check reduces by them with pseudo-remainders
    @pytest.mark.parametrize("den", [(1, -1, -1), (1, -1, 2), (1, 0, 0, 3)])
    def test_golden_ratio_pole_rejected(self, den):
        with pytest.raises(NotQuasiPolynomialError):
            to_quasi_polynomial(RationalGF((0, 1), den))

    def test_cyclotomic_search_is_fast(self):
        # (1 - z - z^2) * prod_{e=3..9} (1 - z^e), degree 44: no period fits
        den = (1, -1, -1)
        for e in range(3, 10):
            den = _times(den, [1] + [0] * (e - 1) + [-1])
        start = time.perf_counter()
        with pytest.raises(NotQuasiPolynomialError):
            to_quasi_polynomial(RationalGF((1,), den))
        assert time.perf_counter() - start < 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(PERIOD_FACTORS), min_size=1, max_size=4),
           st.integers(1, 40))
    @example([(1, 0, 1), (1, 1, 1)], 11)  # lcm(4, 3) = 12 exceeds the cap
    @example([(1, -1, -1), (1, -1)], 40)
    def test_denominator_period_matches_search(self, factors, cap):
        den = (1,)
        for factor in factors:
            den = tuple(_times(den, factor))
        assert _denominator_period(den, cap) == _period_by_search(den, cap)

    def test_evaluation_matches_series(self, gf_corpus):
        for q in gf_corpus:
            try:
                qp = to_quasi_polynomial(q)
            except NotQuasiPolynomialError:
                continue
            coeffs = series_coeffs(q, 200)
            got = [qp.evaluate(k) for k in range(201)]
            assert got == coeffs, q


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(lambda: str(RationalGF.zero()), "(0)", id="str_zero"),
        pytest.param(lambda: str(RationalGF((1, -1))), "(1 - z)", id="str_minus_z"),
        pytest.param(
            lambda: str(RationalGF((1, 2, 1))), "(1 + 2*z + z^2)", id="str_polynomial"
        ),
        pytest.param(  # a zero coefficient leaves no term
            lambda: str(RationalGF((1, 0, 1), (1, 0, -1))),
            "(1 + z^2)/(1 - z^2)",
            id="str_zero_coefficient",
        ),
        pytest.param(
            lambda: repr(RationalGF((1,), (1, -1))),
            "RationalGF(num=(1,), den=(1, -1))",
            id="repr",
        ),
        pytest.param(
            lambda: setattr(RationalGF.one(), "num", (2,)),
            AttributeError("RationalGF is immutable"),
            id="immutable",
        ),
        pytest.param(lambda: RationalGF.one() == 1, False, id="eq_other_type"),
        pytest.param(
            lambda: RationalGF.one() + 1,
            TypeError("unsupported operand"),
            id="add_other_type",
        ),
        pytest.param(
            lambda: hash(RationalGF((2, 2), (2, -2))) == hash(RationalGF((1, 1), (1, -1))),
            True,
            id="hash",
        ),
        pytest.param(
            lambda: series_coeffs(RationalGF.one(), -1),
            ValueError("n must be nonnegative"),
            id="series",
        ),
        pytest.param(  # coordinate 0 would read the last coordinate
            lambda: gf_unambiguous_linear(LinearSet((0, 0)), 0),
            ValueError("coordinate index 0 out of range"),
            id="formula",
        ),
        pytest.param(  # every part is checked, not only the first
            lambda: genfunc.gf_unambiguous_sum((LinearSet((1,)), LinearSet((-1,))), 1),
            ValueError("base projection -1 is negative"),
            id="formula_sum",
        ),
        pytest.param(
            lambda: fit_rational([1, 1, 1], -1, 0),
            ValueError("max_order and verify_window must be nonnegative"),
            id="fit_order",
        ),
        pytest.param(
            lambda: fit_rational([1, 1, 1], 1, -1),
            ValueError("max_order and verify_window must be nonnegative"),
            id="fit_window",
        ),
        pytest.param(
            lambda: QuasiPolynomial(1, ((1,),), (1,)).evaluate(-1),
            ValueError("index must be nonnegative"),
            id="evaluate",
        ),
    ],
)
def test_paths_and_guards(call, expected):
    assert_outcome(call, expected)


class TestFitHypothesis:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), max_size=3),
        st.lists(st.integers(-3, 3), max_size=3),
    )
    def test_fit_recovers_random_gf(self, num, den_tail):
        q = RationalGF(num, [1] + den_tail)
        prefix = series_coeffs(q, 17)
        assert fit_rational(prefix, 3, 5) == q


def _reference_fit(prefix, max_order, verify_window):
    """``fit_rational`` with a linear scan over every start: the reference
    for the bisected scan."""
    prefix = [int(v) for v in prefix]
    n = len(prefix)
    if verify_window < 0 or max_order < 0:
        raise ValueError("max_order and verify_window must be nonnegative")
    if n < verify_window + 1:
        raise ValueError(f"need at least {verify_window + 1} terms, got {n}")
    fit_end = n - verify_window
    for t in range(min(max_order, fit_end // 2) + 1):
        for start in range(t, fit_end + 1):
            if t > 0 and fit_end - start < t:
                break
            rows = [
                [prefix[k - i] for i in range(1, t + 1)]
                for k in range(start, fit_end)
            ]
            rhs = [prefix[k] for k in range(start, fit_end)]
            solution = _reference_solve(rows, rhs) if t > 0 else ([], [])
            if solution is None:
                continue
            if t == 0 and any(v != 0 for v in prefix[start:fit_end]):
                continue
            den = [Fraction(1)] + [-bi for bi in solution[0]]
            scale = lcm(*(x.denominator for x in den))  # RationalGF takes ints
            den = [int(x * scale) for x in den]
            num = [
                sum(den[j] * prefix[k - j] for j in range(min(k, t) + 1))
                for k in range(start)
            ]
            try:
                candidate = RationalGF(num, den)
            except ValueError:
                continue
            if series_coeffs(candidate, n - 1) == prefix:
                return candidate
    raise ValueError(
        f"no rational function of order <= {max_order} explains the prefix"
    )


@st.composite
def recurrence_prefixes(draw):
    """An integer linear recurrence of order <= 4 after a random preperiod."""
    order = draw(st.integers(0, 4))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=order, max_size=order))
    values = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    preperiod = draw(st.lists(st.integers(-5, 5), max_size=4))
    n = draw(st.integers(10, 40))
    while len(preperiod) + len(values) < n:
        values.append(sum(c * values[-1 - i] for i, c in enumerate(coeffs)))
    return (preperiod + values)[:n]


def _fit_outcome(fit, prefix, max_order, verify_window):
    try:
        return fit(prefix, max_order, verify_window)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestFitAgainstLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            recurrence_prefixes(),
            st.lists(st.integers(-5, 5), min_size=1, max_size=12),
        ),
        st.integers(0, 6),
        st.integers(0, 5),
    )
    @example([1, 1, 1], 1, 1)  # the one start for t = 1 is the last one
    @example([3, 0, 1, 1, 2, 3, 5, 8, 13, 21], 4, 2)
    # t = 2, start 2: column 1 pivots and column 0 is free
    @example([1, 0, 0, 0, 5], 2, 1)
    # t = 1 is first consistent at start 3 with b = 1/3, so the integer
    # denominator is scaled by 3 (and rejected); t = 2 fits
    @example([1, -1, -3, -1, 5], 5, 1)
    def test_fit_matches_linear_scan(self, prefix, max_order, verify_window):
        assert _fit_outcome(
            fit_rational, prefix, max_order, verify_window
        ) == _fit_outcome(_reference_fit, prefix, max_order, verify_window)


class TestFitEliminatesOncePerOrder:
    @pytest.mark.parametrize(
        "text", [PCU_TEXT, DIA_TEXT, BCU_TEXT], ids=["pcu", "dia", "bcu"]
    )
    def test_depth_60_fit(self, text, monkeypatch):
        values = bfs_coordination(parse_periodic_graph(text), 1, 60).values
        orders = []
        eliminate = genfunc._eliminate

        def counted(rows, ncols):
            orders.append(ncols)
            return eliminate(rows, ncols)

        monkeypatch.setattr(genfunc, "_eliminate", counted)
        q = fit_rational(values, (len(values) - 5) // 2, 5)
        assert series_coeffs(q, 60) == list(values)
        # the order is the number of coefficient columns
        assert len(orders) <= 2 * len(set(orders))
