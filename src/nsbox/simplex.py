"""Dense two-phase simplex solver with Bland's rule.

Solves
    min / max  c . x
    subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0

on dense numpy arrays.  Bland's smallest-index rule is used for both the
entering and the leaving variable, which makes the pivot sequence (and
hence the returned basic solution) deterministic and cycle-free.  Optimal
solutions are always basic, i.e. vertices of the feasible polyhedron;
random_ns_vertex relies on that.

Statuses are reported explicitly; a solution that fails the final
feasibility re-check is returned as "numerical", never as "optimal".
"""

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 200_000


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None
    value: float | None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _bland_iterate(T, z, basis, ncols, max_pivots):
    """Run simplex pivots until optimal/unbounded; returns status."""
    for _ in range(max_pivots):
        enter = -1
        for j in range(ncols):
            if z[j] < -_COST_TOL:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        col = T[:, enter]
        rows = np.nonzero(col > _PIVOT_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        leave = min(ties, key=lambda r: basis[r])
        _pivot(T, z, basis, leave, enter)
    return NUMERICAL


def _pivot(T, z, basis, r, j):
    pivrow = T[r] / T[r, j]
    col = T[:, j].copy()
    T -= np.outer(col, pivrow)
    T[r] = pivrow
    z -= z[j] * pivrow
    basis[r] = j


def _reduced_costs(T, basis, cost):
    z = np.zeros(T.shape[1])
    z[: cost.size] = cost
    for r, bv in enumerate(basis):
        cb = cost[bv] if bv < cost.size else 0.0
        if cb != 0.0:
            z = z - cb * T[r]
            z[bv] = 0.0  # basic columns are unit vectors; kill rounding residue
    return z


def lp_solve(
    objective,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    maximize: bool = False,
    max_pivots: int = _MAX_PIVOTS,
) -> LPResult:
    """Solve the LP; variables are implicitly nonnegative."""
    c = np.asarray(objective, dtype=float).reshape(-1)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    if a_ub.shape[0] != b_ub.size or a_eq.shape[0] != b_eq.size:
        raise ValueError("constraint matrix / rhs size mismatch")

    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    nslack = m_ub
    ncols = n + nslack

    A = np.zeros((m, ncols))
    b = np.concatenate([b_eq, b_ub])
    if m_eq:
        A[:m_eq, :n] = a_eq
    if m_ub:
        A[m_eq:, :n] = a_ub
        A[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = 1.0

    # Make the rhs nonnegative; flipped slack rows lose their unit column.
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    # Initial basis: slack where it survived the flip, artificial otherwise.
    basis = []
    art_rows = []
    for r in range(m):
        srow = r - m_eq
        if srow >= 0 and not flip[r]:
            basis.append(n + srow)
        else:
            art_rows.append(r)
            basis.append(-1)  # placeholder, assigned below

    nart = len(art_rows)
    T = np.zeros((m, ncols + nart + 1))
    T[:, :ncols] = A
    T[:, -1] = b
    for i, r in enumerate(art_rows):
        T[r, ncols + i] = 1.0
        basis[r] = ncols + i

    sense = -1.0 if maximize else 1.0
    cost = sense * c

    if nart:
        phase1_cost = np.zeros(ncols + nart)
        phase1_cost[ncols:] = 1.0
        z = _reduced_costs(T, basis, phase1_cost)
        status = _bland_iterate(T, z, basis, ncols + nart, max_pivots)
        if status != OPTIMAL:
            return LPResult(NUMERICAL, None, None)
        if -z[-1] > _FEAS_TOL:
            return LPResult(INFEASIBLE, None, None)
        # Clear leftover artificials: pivot out at level zero or drop the row.
        drop = []
        for r in range(m):
            if basis[r] >= ncols:
                cand = np.nonzero(np.abs(T[r, :ncols]) > _PIVOT_TOL)[0]
                if cand.size:
                    _pivot(T, z, basis, r, int(cand[0]))
                else:
                    drop.append(r)
        if drop:
            keep = [r for r in range(m) if r not in drop]
            T = T[keep]
            basis = [basis[r] for r in keep]
            m = len(keep)
    T = np.concatenate([T[:, :ncols], T[:, -1:]], axis=1)

    full_cost = np.zeros(ncols)
    full_cost[:n] = cost
    z = _reduced_costs(T, basis, full_cost)
    status = _bland_iterate(T, z, basis, ncols, max_pivots)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    if status != OPTIMAL:
        return LPResult(NUMERICAL, None, None)

    x = np.zeros(ncols)
    for r, bv in enumerate(basis):
        x[bv] = T[r, -1]
    x = x[:n]

    scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    feasible = bool(np.all(x >= -_FEAS_TOL))
    if m_eq and feasible:
        feasible = float(np.max(np.abs(a_eq @ x - b_eq))) <= _FEAS_TOL * scale
    if m_ub and feasible:
        feasible = float(np.max(a_ub @ x - b_ub)) <= _FEAS_TOL * scale
    if not feasible:
        return LPResult(NUMERICAL, None, None)
    return LPResult(OPTIMAL, x, float(c @ x))
