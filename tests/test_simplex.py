"""LP solver unit tests, cross-checked against scipy.optimize.linprog."""

import numpy as np
import pytest
from scipy.optimize import linprog

from nsbox import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve, uniform_box


class TestBasics:
    def test_box_constraint(self):
        res = lp_solve([1.0], a_ub=[[1.0]], b_ub=[1.0], maximize=True)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0)
        assert res.x[0] == pytest.approx(1.0)

    def test_infeasible(self):
        # x <= 0 and x >= 1 cannot both hold.
        res = lp_solve([1.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0], maximize=True)
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = lp_solve([1.0], maximize=True)
        assert res.status == UNBOUNDED

    def test_equality_system(self):
        # x + y = 1, maximize x - y -> (1, 0).
        res = lp_solve([1.0, -1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], maximize=True)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0)
        assert np.allclose(res.x, [1.0, 0.0])

    def test_master_lp_first_iteration_is_bounded(self):
        # Maximizing <c, P-Q> over nonnegative effect coefficients c with
        # 0 <= <c, U> <= 1 for the uniform box U alone has a finite
        # optimum: <c, U> <= 1 caps the coefficient sum.
        u = uniform_box(2, 2, 2).probs
        diff = np.zeros(16)
        diff[0], diff[5] = 1.0, -1.0
        res = lp_solve(diff, a_ub=np.vstack([u, -u]), b_ub=[1.0, 0.0], maximize=True)
        assert res.status == OPTIMAL
        assert np.isfinite(res.value)
        assert res.value == pytest.approx(4.0)  # all weight on one entry

    def test_degenerate_and_redundant_rows(self):
        # Duplicated equality rows must not break phase 1.
        res = lp_solve(
            [0.0, -1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 1.0, 2.0],
        )
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-1.0)


class TestAgainstScipy:
    def test_random_problems(self):
        rng = np.random.default_rng(123)
        hits = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for _ in range(250):
            n = int(rng.integers(1, 9))
            m_ub = int(rng.integers(0, 6))
            m_eq = int(rng.integers(0, 4))
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((m_ub, n)) if m_ub else None
            b_ub = rng.standard_normal(m_ub) + 0.5 if m_ub else None
            a_eq = rng.standard_normal((m_eq, n)) if m_eq else None
            b_eq = a_eq @ rng.random(n) if m_eq else None
            mine = lp_solve(c, a_ub, b_ub, a_eq, b_eq)
            ref = linprog(
                c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
            )
            expected = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
            assert mine.status == expected
            hits[expected] += 1
            if expected == OPTIMAL:
                assert mine.value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                # Maximizing the negated objective reaches the same optimum.
                twin = lp_solve(-c, a_ub, b_ub, a_eq, b_eq, maximize=True)
                assert twin.status == OPTIMAL
                assert twin.value == pytest.approx(-mine.value, abs=1e-9, rel=1e-9)
        # The generator should exercise all three statuses.
        assert all(v > 0 for v in hits.values()), hits

    def test_basic_solution_is_vertex(self):
        # A basic solution has at most (number of rows) nonzero entries.
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 10
            a_eq = rng.standard_normal((4, n))
            b_eq = a_eq @ rng.random(n)
            res = lp_solve(rng.standard_normal(n), a_eq=a_eq, b_eq=b_eq)
            if res.status == OPTIMAL:
                assert np.count_nonzero(res.x > 1e-9) <= 4
