import numpy as np
import pytest

from sepselect.errors import DataError
from sepselect.knee import Curve, chord_difference_argmax, kneedle


def oracle_chord_argmax(xs, ys):
    """Brute-force knee: argmax of the normalized chord difference on a
    concave increasing curve. Independent of the implementation."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xn = (xs - xs.min()) / (xs.max() - xs.min())
    yn = (ys - ys.min()) / (ys.max() - ys.min())
    return float(xs[np.argmax(yn - xn)])


def concave_curve(rng):
    n = int(rng.integers(15, 40))
    xs = np.sort(rng.uniform(0.0, 10.0, size=n))
    xs += np.arange(n) * 1e-6  # guard strict monotonicity
    exponent = rng.uniform(0.15, 0.6)
    x01 = (xs - xs[0]) / (xs[-1] - xs[0])
    ys = x01 ** exponent
    return xs, ys


class TestKneedle:
    def test_hand_worked_example(self):
        c = Curve(xs=[0, 1, 2, 3, 4], ys=[0.0, 0.7, 0.9, 0.97, 1.0])
        assert kneedle(c) == 1.0
        assert oracle_chord_argmax(c.xs, c.ys) == 1.0

    def test_straight_line_has_no_knee(self):
        xs = np.linspace(0.0, 1.0, 9)
        assert kneedle(Curve(xs=xs, ys=xs.copy())) is None

    def test_flat_line_has_no_knee(self):
        xs = np.linspace(0.0, 1.0, 7)
        assert kneedle(Curve(xs=xs, ys=np.full(7, 0.4))) is None

    def test_decreasing_convex_mirror(self):
        # vertical mirror of the hand-worked example: same knee x
        c = Curve(xs=[0, 1, 2, 3, 4], ys=[1.0, 0.3, 0.1, 0.03, 0.0])
        assert kneedle(c) == 1.0

    def test_decreasing_concave_mirror(self):
        # horizontal mirror: knee moves to the mirrored x
        c = Curve(xs=[0, 1, 2, 3, 4], ys=[1.0, 0.97, 0.9, 0.7, 0.0])
        assert kneedle(c) == 3.0

    def test_increasing_convex(self):
        # both flips: mirror of the decreasing-concave case
        c = Curve(xs=[0, 1, 2, 3, 4], ys=[0.0, 0.03, 0.1, 0.3, 1.0])
        assert kneedle(c) == 3.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        xs, ys = concave_curve(rng)
        base = kneedle(Curve(xs=xs, ys=ys))
        shifted = kneedle(Curve(xs=xs, ys=3.7 * ys - 2.0))
        assert shifted == base

    def test_returns_an_input_x(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            xs, ys = concave_curve(rng)
            knee = kneedle(Curve(xs=xs, ys=ys))
            assert knee is not None
            assert knee in xs.tolist()

    def test_agrees_with_oracle_on_concave_noiseless_curves(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            xs, ys = concave_curve(rng)
            knee = kneedle(Curve(xs=xs, ys=ys))
            assert knee == oracle_chord_argmax(xs, ys)

    def test_high_sensitivity_rejects_shallow_knee(self):
        xs = np.linspace(0.0, 1.0, 11)
        ys = xs ** 0.93  # nearly straight: no knee at the fixed sensitivity 1
        assert kneedle(Curve(xs=xs, ys=ys)) is None

    def test_curve_validation(self):
        with pytest.raises(DataError):
            Curve(xs=[0, 1], ys=[0, 1])
        with pytest.raises(DataError):
            Curve(xs=[0, 0, 1], ys=[0, 1, 2])


class TestChordFallback:
    def test_matches_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            xs, ys = concave_curve(rng)
            assert chord_difference_argmax(Curve(xs=xs, ys=ys)) == oracle_chord_argmax(xs, ys)

    def test_defined_on_flat_curve(self):
        xs = np.linspace(0.0, 1.0, 5)
        out = chord_difference_argmax(Curve(xs=xs, ys=np.zeros(5)))
        assert out in xs.tolist()
