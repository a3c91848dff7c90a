"""Dense two-phase revised simplex with Bland's rule.

Minimizes c.v subject to A_eq v = b_eq, A_ub v <= b_ub and v >= lower, for
one or more objectives over the same rows (a maximum is minus the minimum of
the negated row); a ``lower`` that the rows already imply leaves the optimum
of the LP over free variables.  Internally the problem moves to standard
form once (y = v - lower >= 0, slacks added to the inequalities) and phase 1
runs at most once, from the slack basis (Bixby, ORSA J. Computing 4, 1992):
an inequality row whose slack is feasible at y = 0 starts with that slack
basic, and only equality rows and rows whose right-hand side was flipped
start with an artificial.  Each objective's phase 2 starts from the optimal
basis of the objective before it (the first from the phase-1 basis): only
the costs change, so that basis is still feasible.

Given ``bases``, the optimal bases an earlier solve on rows of the same
shape left (one per objective, as the previous probe of a radius search
leaves them), an objective's phase 2 starts from its own earlier basis if
that basis is feasible here: its matrix inverts, no basic value is below
-FEAS_TOL (values in [-FEAS_TOL, 0) are clamped to 0, as in a
refactorization) and no basic artificial is above FEAS_TOL.  Given
``vertices``, an objective without such a start next tries its vertex: the
basis of every variable and the slacks of the rows not tight there, under
the same checks.  Phase 1 then runs only if the first objective has no
start; a later objective without one starts from the optimum of the
objective before it.  A start moves where the pivots begin, not the LP, so
the optimum stays the same up to rounding.

The entering column is the eligible one of smallest index.  Among the rows
tied in the ratio test the one with the largest pivot leaves, except on a
degenerate pivot (a step of 0), where the one with the smallest basic index
leaves.  A cycle is made of degenerate pivots only, so it would follow
Bland's smallest-index rule throughout, which cannot cycle.  The basis
inverse is maintained by elementary row updates and refactorized
periodically, after the artificial drive-out and before optimality is
concluded, so that every solve ends, and every warm start begins, on a
fresh inverse.  A point v is off its rows when it misses an equality or
breaks an inequality by more than FEAS_TOL.  A phase 1 that fails, and an
objective whose solve ends off its rows, on a singular basis or on a
spurious unbounded ray, are solved again cold: phase 1 from the
all-artificial basis, then phase 2, with a refactorization at every pivot.
A cold point off its rows raises SimplexError.
"""

from __future__ import annotations

import numpy as np

#: pivot / reduced-cost tolerance
PIVOT_TOL = 1e-9
#: smallest direction entry accepted as a pivot in the ratio test; a pivot
#: just above PIVOT_TOL leaves a numerically singular basis
RATIO_TOL = 1e-7
#: rounding error of a reduced cost, relative to |multipliers| @ |column|
ROUNDING = 1e-13
#: a phase-1 objective, or a point's largest row violation, above this fails
FEAS_TOL = 1e-7
#: refactorize the basis inverse every this many pivots
REFACTOR_EVERY = 100


class SimplexError(RuntimeError):
    """Base class for solver failures."""


class InfeasibleError(SimplexError):
    pass


class UnboundedError(SimplexError):
    pass


class IterationLimitError(SimplexError):
    pass


def _refactor(A, b, basis, B_inv, xB):
    """Recompute the basis inverse and the basic values from scratch."""
    B_inv[:, :] = np.linalg.inv(A[:, basis])
    xB[:] = np.maximum(B_inv @ b, 0.0)


def _take_in(B_inv, basis, row, enter, d, piv):
    """Pivot column ``enter`` in at ``row``, with d = B_inv @ A[:, enter]."""
    B_inv[row, :] /= piv
    others = np.arange(len(basis)) != row
    B_inv[others, :] -= np.outer(d[others], B_inv[row, :])
    basis[row] = enter


def _bland_pivot(A, b, c, basis, B_inv, xB, allowed, iter_budget,
                 refactor_every):
    """Pivot to optimality; mutates basis/B_inv/xB in place.

    ``allowed`` masks the columns that may enter (used to lock out
    artificials in phase 2).  Returns the number of iterations spent.

    A step above 0 leaves the tied row with the largest pivot, and the
    inverse is refactorized every ``refactor_every`` pivots.  On the
    near-parallel lines of sigmoid LPs a basic value a little below 0 is
    clamped to 0, and a pivot of 1e-5 on its row then moves the entering
    variable 1e5 times as far below 0.

    The updated basis inverse drifts, and an ill-conditioned basis gives
    multipliers large enough for the rounding error of a reduced cost to
    pass PIVOT_TOL.  So optimality is concluded only on an inverse
    refactorized since the last pivot (the one passed in counts as fresh):
    on a basis of condition 2e5 drifted basic values solved B xB = b to
    7e-11 yet moved the objective 3e-8.  A direction without a positive
    entry first refactorizes the inverse, then discards an entering reduced
    cost that lies within its own rounding error, before it is taken as
    unbounded.
    """
    m, n = A.shape
    used = 0
    since_refactor = 0
    col_idx = np.arange(n)
    eligible = allowed.copy()      # allowed, less columns priced as noise
    while True:
        if used >= iter_budget:
            raise IterationLimitError("simplex iteration cap exceeded")
        used += 1
        lam = c[basis] @ B_inv
        reduced = c - lam @ A
        reduced[basis] = 0.0
        candidates = col_idx[(reduced < -PIVOT_TOL) & eligible]
        if candidates.size == 0:
            if since_refactor == 0:
                return used
            since_refactor = 0
            _refactor(A, b, basis, B_inv, xB)
            continue
        enter = int(candidates[0])  # Bland: smallest index
        d = B_inv @ A[:, enter]
        pos = d > RATIO_TOL
        if not pos.any():
            if since_refactor:
                since_refactor = 0
                _refactor(A, b, basis, B_inv, xB)
                continue
            noise = ROUNDING * (np.abs(lam) @ np.abs(A[:, enter]))
            if reduced[enter] < -noise:
                raise UnboundedError("unbounded direction encountered")
            eligible[enter] = False
            continue
        ratios = np.full(m, np.inf)
        ratios[pos] = xB[pos] / d[pos]
        theta = ratios.min()
        ties = np.flatnonzero(ratios <= theta + 1e-12)
        if ties.size > 1:
            # a tied row leaving in place of the minimum-ratio row r moves
            # the basic value of r below 0 by the ratio gap times d[r]; on
            # large pivots the band narrows so that this stays below 1e-12
            band = 1e-12 / max(1.0, d[ties].max())
            ties = ties[ratios[ties] <= theta + band]
        if theta == 0.0:
            # Bland tie-break: leave the variable with the smallest index
            leave_row = int(ties[np.argmin(basis[ties])])
        else:
            leave_row = int(ties[np.argmax(d[ties])])
        leaving = basis[leave_row]
        xB -= theta * d
        xB[leave_row] = theta
        np.maximum(xB, 0.0, out=xB)
        _take_in(B_inv, basis, leave_row, enter, d, d[leave_row])
        eligible[:] = allowed
        since_refactor += 1
        if since_refactor >= refactor_every:
            since_refactor = 0
            try:
                _refactor(A, b, basis, B_inv, xB)
            except np.linalg.LinAlgError:
                # a pivot on rounding noise left a singular basis: undo it
                basis[leave_row] = leaving
                _refactor(A, b, basis, B_inv, xB)
                eligible[enter] = False


def solve_inequality_form(c, A_eq, b_eq, A_ub, b_ub, lower, max_iter=10**6,
                          bases=None, vertices=None):
    """Minimize over the variables v >= ``lower`` every objective, one per
    row of ``c``; returns the optimal values and points, one entry (row) per
    objective.  ``max_iter`` caps the pivots of phase 1 plus one objective's
    phase 2.

    ``bases``, if given, is a list with one entry per objective: None, or an
    optimal basis this function stored there before, which objective j's
    phase 2 starts from if it is feasible here (``_start``).  Entry j is
    replaced by objective j's optimal basis.

    ``vertices``, if given, is called at most once, when an objective has
    no feasible basis of its own, and returns per objective the rows of
    ``A_ub`` tight at a vertex at which every variable is basic: an
    objective without a feasible basis of its own starts there if that
    basis is feasible here (``_start``)."""
    costs = np.asarray(c, dtype=float)
    if costs.ndim != 2:
        raise ValueError(f"c must be 2-D, one row per objective, got shape "
                         f"{costs.shape}")
    if bases is not None and len(bases) != len(costs):
        raise ValueError(f"{len(bases)} starting bases for {len(costs)} "
                         f"objectives")
    nv = costs.shape[1]
    A_eq = np.zeros((0, nv)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    A_ub = np.zeros((0, nv)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)

    n_eq, n_ub = A_eq.shape[0], A_ub.shape[0]
    m = n_eq + n_ub
    # standard form: y = [v - lower, slacks]; rows [A_eq; A_ub]
    A = np.block([[A_eq, np.zeros((n_eq, n_ub))], [A_ub, np.eye(n_ub)]])
    b = np.concatenate([b_eq - A_eq @ lower, b_ub - A_ub @ lower])
    flip = b < 0
    A[flip, :] *= -1.0
    b = np.abs(b)

    def violation(v):           # largest amount by which v breaks a row
        return max(np.abs(A_eq @ v - b_eq).max(initial=0.0),
                   (A_ub @ v - b_ub).max(initial=0.0))

    n_std = A.shape[1]
    full = np.hstack([A, np.eye(m)])
    artificials = np.arange(n_std, n_std + m)
    rows = np.arange(m)
    slack_basis = np.where((rows >= n_eq) & ~flip, nv + rows - n_eq,
                           artificials)

    # the chain: phase 1's basis, then the optimal basis of each objective
    warm = budget = None
    values = np.empty(len(costs))
    points = np.empty((len(costs), nv))
    tight = None
    for j, cost in enumerate(costs):
        cost2 = np.zeros(n_std + m)
        cost2[:nv] = cost
        start = None if bases is None else _start(full, b, n_std, bases[j])
        if start is None and vertices is not None:
            tight = vertices() if tight is None else tight
            # every variable basic, and the slacks of the rows not tight
            slack = np.ones(n_ub, dtype=bool)
            slack[tight[j]] = False
            if nv + slack.sum() == m:
                start = _start(full, b, n_std, (np.concatenate(
                    [np.arange(nv), nv + np.flatnonzero(slack)]), full.shape))
        if start is None and warm is None:      # the first objective only
            try:
                warm, budget = _phase1(full, b, n_std, slack_basis, max_iter,
                                       REFACTOR_EVERY)
            except (np.linalg.LinAlgError, SimplexError):
                pass
        state, left = (warm, budget) if start is None else (start, max_iter)
        v = None
        if state is not None:
            try:
                v = _phase2(full, b, cost2, n_std, state, left,
                            REFACTOR_EVERY)[:nv] + lower
            except (np.linalg.LinAlgError, UnboundedError):
                pass
        if v is None or violation(v) > FEAS_TOL:
            # cold re-solve, refactorized at every pivot
            state, left = _phase1(full, b, n_std, artificials, max_iter, 1)
            v = _phase2(full, b, cost2, n_std, state, left, 1)[:nv] + lower
            if violation(v) > FEAS_TOL:
                raise SimplexError(f"cold solve ends off its rows by "
                                   f"{violation(v):.3e}")
        warm, budget = state, left
        if bases is not None:
            bases[j] = (state[0].copy(), full.shape)
        points[j] = v
        values[j] = float(cost @ v)
    return values, points


def _start(full, b, n_std, entry):
    """The feasible basis (basis, B_inv, xB) that ``entry`` = (basis, shape
    of ``full``) gives on these rows, or None if there is no entry, the
    shape differs, the basis matrix does not invert, a basic value is below
    -FEAS_TOL or a basic artificial is above FEAS_TOL."""
    if entry is None or entry[1] != full.shape:
        return None
    basis = entry[0].copy()
    try:
        B_inv = np.linalg.inv(full[:, basis])
    except np.linalg.LinAlgError:
        return None
    xB = B_inv @ b
    # written so that a NaN fails both tests
    if not ((xB >= -FEAS_TOL).all()
            and (xB[basis >= n_std] <= FEAS_TOL).all()):
        return None
    return basis, B_inv, np.maximum(xB, 0.0)


def _phase1(full, b, n_std, start, max_iter, refactor_every):
    """Phase 1 on ``full`` = [A, I] from the basis ``start``, whose columns
    are unit columns of ``full`` (slacks of unflipped rows, artificials), so
    its inverse is I; then the drive-out of leftover artificials.  Only the
    artificials of ``start`` may enter.  Returns the feasible basis as
    (basis, B_inv, xB) and the pivots left for phase 2."""
    m = full.shape[0]
    cost1 = np.concatenate([np.zeros(n_std), np.ones(m)])
    basis = start.copy()
    B_inv = np.eye(m)
    xB = b.copy()
    allowed = np.arange(n_std + m) < n_std
    allowed[basis] = True

    used = _bland_pivot(full, b, cost1, basis, B_inv, xB, allowed, max_iter,
                        refactor_every)
    phase1_val = float(cost1[basis] @ xB)
    if phase1_val > FEAS_TOL:
        raise InfeasibleError(f"phase-1 objective {phase1_val:.3e}")

    # drive leftover artificials out of the basis where a real pivot exists;
    # rows with no real pivot are redundant and the artificial stays inert
    driven = False
    for row in range(m):
        if basis[row] < n_std:
            continue
        tableau_row = B_inv[row, :] @ full[:, :n_std]
        cands = np.flatnonzero(np.abs(tableau_row) > 1e-7)
        if cands.size == 0:
            continue
        enter = int(cands[0])
        _take_in(B_inv, basis, row, enter, B_inv @ full[:, enter],
                 tableau_row[enter])
        driven = True
    if driven:
        _refactor(full, b, basis, B_inv, xB)
    return (basis, B_inv, xB), max_iter - used


def _phase2(full, b, cost2, n_std, start, budget, refactor_every):
    """Phase 2 on ``cost2`` from the feasible basis ``start`` = (basis,
    B_inv, xB), which it moves in place to the optimum; returns the optimal
    point y of A y = b, y >= 0."""
    basis, B_inv, xB = start
    allowed = np.arange(full.shape[1]) < n_std  # artificials never re-enter
    _bland_pivot(full, b, cost2, basis, B_inv, xB, allowed, budget,
                 refactor_every)
    y = np.zeros(full.shape[1])
    y[basis] = xB
    return y
