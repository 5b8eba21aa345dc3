"""The two-column nonnegative least-squares solver shared by Eq. 3 and USL."""

import numpy as np
import pytest

from repro.obs.diagnostics import solve_nonnegative

A = np.array([1.0, 2.0, 3.0, 4.0])
Y = 2.02 * A

#: (design, target, expected solution) of the rank-deficient designs:
#: duplicate columns, then collinear columns at ratio 2 and ratio 1/2.
#: The expectations are what ``scipy.optimize.nnls`` returns.
DEGENERATE = [
    pytest.param(np.c_[A, A], Y, (2.02, 0.0), id="duplicate"),
    pytest.param(np.c_[2 * A, A], Y, (1.01, 0.0), id="ratio-2"),
    pytest.param(np.c_[A, 2 * A], Y, (0.0, 1.01), id="ratio-half"),
]


def random_problems(count=300, seed=20261018):
    """Random two-column problems, a third with nonnegative designs."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows = int(rng.integers(2, 8))
        design = rng.normal(size=(rows, 2))
        if i % 3 == 0:
            design = np.abs(design)
        yield design, rng.normal(size=rows)


def degenerate_problems():
    """Rank-deficient designs under targets of either sign."""
    rng = np.random.default_rng(7)
    for design, y, _ in (p.values for p in DEGENERATE):
        yield design, y
        yield design, -y
        yield design, y + rng.normal(scale=0.1, size=len(y))
    yield np.c_[A, -A], Y  # anti-collinear: only one column correlates
    yield np.c_[A, -A], -Y
    yield np.c_[np.zeros(4), A], Y  # a zero column
    yield np.c_[np.zeros(4), A], -Y
    yield np.zeros((4, 2)), Y  # nothing to fit


def assert_kkt(design, y, x):
    """x >= 0; zero gradient on the kept columns, none positive on the clamped."""
    assert np.all(x >= 0)
    gradient = design.T @ (y - design @ x)
    tol = 1e-9 * (1.0 + np.linalg.norm(design, axis=0) * np.linalg.norm(y))
    for j in (0, 1):
        if x[j] > 0:
            assert abs(gradient[j]) <= tol[j]
        else:
            assert gradient[j] <= tol[j]


class TestKKT:
    def test_random_problems(self):
        for design, y in random_problems():
            x0, x1, _ = solve_nonnegative(design, y)
            assert_kkt(design, y, np.array([x0, x1]))

    def test_degenerate_problems(self):
        for design, y in degenerate_problems():
            x0, x1, _ = solve_nonnegative(design, y)
            assert_kkt(design, y, np.array([x0, x1]))


class TestTieRule:
    @pytest.mark.parametrize("design,y,expected", DEGENERATE)
    def test_rank_deficient_keeps_one_column(self, design, y, expected):
        x0, x1, clamped = solve_nonnegative(design, y, ("t2", "tm"))
        assert (x0, x1) == pytest.approx(expected, rel=1e-12)
        assert clamped == (["tm"] if expected[1] == 0 else ["t2"])

    def test_feasible_full_rank_is_the_unconstrained_solution(self):
        design = np.c_[A, A**2]
        x0, x1, clamped = solve_nonnegative(design, design @ np.array([0.5, 0.25]))
        assert (x0, x1) == pytest.approx((0.5, 0.25), rel=1e-12)
        assert clamped == []

    def test_no_positive_correlation_clamps_both(self):
        x0, x1, _ = solve_nonnegative(np.c_[A, A**2], -Y)
        assert (x0, x1) == (0.0, 0.0)


class TestAgreesWithScipy:
    """scipy is a test oracle only: the package never imports it."""

    def check(self, design, y):
        nnls = pytest.importorskip("scipy.optimize").nnls
        expected, _ = nnls(design, y)
        x = np.array(solve_nonnegative(design, y)[:2])
        scale = max(float(np.max(np.abs(expected))), 1e-300)
        assert np.max(np.abs(x - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("design,y,expected", DEGENERATE)
    def test_degenerate_designs(self, design, y, expected):
        self.check(design, y)
        nnls = pytest.importorskip("scipy.optimize").nnls
        assert nnls(design, y)[0] == pytest.approx(expected, rel=1e-12)

    def test_random_problems(self):
        for design, y in random_problems():
            self.check(design, y)

    def test_other_degenerate_problems(self):
        for design, y in degenerate_problems():
            self.check(design, y)
