"""Canaries for the stack a run's bytes depend on beyond its config.

NumPy does not promise `Generator` streams across versions, SciPy's
`stdtrit` is not correctly rounded, and `engine._hypot` restates CPython's
`math.hypot`; the report digests also rest on float `repr`. Each test pins
a few of those values, as a sha256 of their little-endian bytes or as a
short list, so a golden digest that moves comes with the layer that moved.
"""

import hashlib
import math
import platform

import numpy as np
import scipy
from scipy.special import stdtrit

PINNED = {"Python": "3.11.7", "NumPy": "2.4.6", "SciPy": "1.17.1"}
INSTALLED = {"Python": platform.python_version(), "NumPy": np.__version__,
             "SciPy": scipy.__version__}


def _moved(dependency: str, what: str) -> str:
    return (f"{dependency} {INSTALLED[dependency]}: {what} differ from those pinned "
            f"with {dependency} {PINNED[dependency]}")


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(values.astype(values.dtype.newbyteorder("<")).tobytes()).hexdigest()


def _stream() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(20260521)))


def test_numpy_generator_words_and_draws_are_the_pinned_ones():
    words = _stream().bit_generator.random_raw(64)
    assert _sha256(words) == (
        "e8fe4131f900f0f68b68f1b667c939707cfa07152b1b25d9ba77ac0f2e09fe1c"), _moved(
        "NumPy", "a seeded PCG64's raw words")
    stream = _stream()
    draws = np.concatenate([stream.random(64), stream.beta(2.0, 2.0, 64),
                            stream.exponential(5.0, 64)])
    assert _sha256(draws) == (
        "71f3d4f3a7ae7234171b27efe8be4364e4e2d8f737504d709b702176544bbfe8"), _moved(
        "NumPy", "a seeded Generator's random, beta(2, 2) and exponential draws")


def test_scipy_stdtrit_quantiles_are_the_pinned_ones():
    quantiles = stdtrit(np.arange(1, 300), 0.975)
    assert _sha256(quantiles) == (
        "c3b0114c9abd42abd07f35caa86b208d48c4954483cafabaec91ee14e842003d"), _moved(
        "SciPy", "stdtrit's quantiles at p = 0.975 for 1 to 299 degrees of freedom")


def test_cpython_hypot_and_float_repr_are_the_pinned_ones():
    # Two and three coordinates across the exponent range, each one IEEE
    # division or scaling, so only `math.hypot` can move the values.
    norms = [math.hypot(math.ldexp(i / 7, i % 601 - 300), (1001 - i) / 3,
                        *([i / 11] if i % 2 else [])) for i in range(1, 1001)]
    assert _sha256(np.array(norms)) == (
        "0f7d8fcef90fa7ece8875ebab8af346d37fe6e2da3a922de71c26deb3ebeded5"), _moved(
        "Python", "math.hypot's values")
    texts = [repr(x) for x in (0.1, 1 / 3, 0.1 + 0.2, 1e16, 1e22, 5e-324, 2.0 ** 0.5,
                               1.7976931348623157e308)]
    assert texts == ["0.1", "0.3333333333333333", "0.30000000000000004", "1e+16", "1e+22",
                     "5e-324", "1.4142135623730951", "1.7976931348623157e+308"], _moved(
        "Python", "float repr's texts")
