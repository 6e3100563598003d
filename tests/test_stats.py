import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cep.stats import UndefinedCorrelationError, pearson


def reference_pearson(x, y):
    """pearson as three fsums over the raw series: the formula it must equal."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0 or sxx * syy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    return sxy / math.sqrt(sxx * syy)


def outcome(f, x, y):
    """The result, or the type of the error raised."""
    try:
        return f(x, y)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


price = st.floats(-1e6, 1e6, allow_nan=False)
nudge = st.sampled_from((0.0, 1e-9, -1e-9, 2.0 ** -40, 3e-16))
history = st.one_of(
    st.tuples(*[price] * 5),
    # Near-constant: tiny deviations around one value, or none at all.
    st.builds(lambda c, d: tuple(c + e for e in d), price,
              st.tuples(*[nudge] * 5)),
)


@given(history, history, history)
@example((0.0, 0.0, 0.0, 0.0, 3.8e-125), (1.0, 2.0, 3.0, 4.0, 5.0),
         (0.0,) * 5)
def test_bit_identical_to_the_three_fsum_formula(x, y, z):
    # Repeats and shared sides go through the memoised centring of a tuple.
    for a, b in ((x, y), (x, y), (x, z), (z, y), (y, x), (x, x), (z, z)):
        assert outcome(pearson, a, b) == outcome(reference_pearson, a, b)
    # A list is never memoised: changed in place, it is centred again.
    xs = list(x)
    assert outcome(pearson, xs, y) == outcome(reference_pearson, xs, y)
    xs[0] += 1.0
    assert outcome(pearson, xs, y) == outcome(reference_pearson, xs, y)
    assert outcome(pearson, y, xs) == outcome(reference_pearson, y, xs)


def test_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


def test_perfect_inverse():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_known_value():
    # 3 / sqrt(2 * 14/3), computed by hand from the covariance sums.
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9819805060619659,
                                                          abs=1e-12)


def test_matches_scipy_on_random_series():
    scipy_stats = pytest.importorskip("scipy.stats")
    import random

    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(2, 12)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [rng.uniform(-5, 5) for _ in range(n)]
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        expected = scipy_stats.pearsonr(x, y).statistic
        assert pearson(x, y) == pytest.approx(expected, abs=1e-10)


def test_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        pearson([1, 2], [1, 2, 3])


def test_underflowing_variance_product_is_undefined():
    # Both series vary, but sxx * syy is below the smallest float.
    x = (0.0, 0.0, 0.0, 0.0, 3.8e-125)
    with pytest.raises(UndefinedCorrelationError):
        pearson(x, x)


def test_overflowing_variance_product_keeps_the_coefficient():
    # Each sum of squares is finite (2e160), but their product is not.
    x = (0.0, 1e80, 2e80)
    assert pearson(x, x) == 1.0
    assert pearson(x, x[::-1]) == -1.0


def test_zero_variance():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])


def test_too_short():
    with pytest.raises(UndefinedCorrelationError, match="at least 2"):
        pearson([1], [1])


@pytest.mark.parametrize("x", [
    (math.inf, -math.inf, 1.0),  # fsum meets infinities of both signs
    (1e200, -1e200, 0.0),  # a squared deviation overflows
    (1.5e308, 1.5e308, 0.0),  # the sum overflows
])
def test_non_finite_sums_are_undefined(x):
    with pytest.raises(UndefinedCorrelationError, match="non-finite"):
        pearson(x, (1.0, 2.0, 4.0))
    with pytest.raises(UndefinedCorrelationError, match="non-finite"):
        pearson((1.0, 2.0, 4.0), list(x))


def test_an_infinity_of_one_sign_is_undefined():
    # No sum raises here: the covariance and one sum of squares are nan.
    with pytest.raises(UndefinedCorrelationError, match="non-finite"):
        pearson((math.inf, 1.0, 2.0), (4.0, 1.0, 1.0))
