"""Exact single-sample updates for a trained one-class SVM.

Adding a point grows the candidate's coefficient from zero until its own
optimality condition holds, and shrinks the box bound C = 1/(nu*n) because
n grew. Both are one homotopy walk whose step is the decrease of C from
the old bound to c_new = 1/(nu*(n+1)), driven by one rate vector: points
pinned at the bound (E) ride it at rate -1, a candidate with g_c < 0 grows
at rate n = c_new/(c_old - c_new), so it would reach c_new exactly when C
does, and the margin set S absorbs the net mass. The candidate stops
growing when g_c reaches 0 (case 4, it joins S), when it is the best
recruit for an empty S, or when C reaches c_new (it joins E, logged as
case 5 with step 0). Each step of the walk runs to the nearest event,
found in one pass. Every retained point stays KKT-consistent after each
migration event.

Internally the bias is carried as b = -rho so the bordered margin system
Q = [[0, 1^T], [1, K_SS]] stays symmetric; sensitivities are reported in
b-space (beta[0] is db per unit step, so d rho = -beta[0] * step). Each
step of the walk assembles Q from the kernel columns of the current margin
set S and solves it once; no inverse is carried from step to step, so a
point joining or leaving S is a list edit. A step whose Q has a 2-norm
condition number above ``COND_LIMIT`` raises ImmobileError.

S and E are short ordered index lists; their order fixes Q's layout and
the order of the drive's sums. Rv, which holds nearly every point, is one
boolean mask over the n+1 rows. So no step of the walk does Python work
that grows with n: S, E and the candidate are handled one point at a
time on Python floats, and every pass over all rows is a numpy vector
operation.

An insert evaluates kernel columns only for S, E, the candidate and the
points recruited into S, on first use, never the whole (n+1)^2 Gram.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ImmobileError, KktViolationError, ValidationError
from .ocsvm import OcsvmModel, kernel_matrix, kkt_masks, recover_rho

ZERO_STEP = 1e-14
COND_LIMIT = 1e12  # largest condition number of Q a step may solve
MAX_EVENTS_PER_POINT = 60

# set each migration case moves a point to; case 3 comes from E or Rv
_DESTINATION = {1: "E", 2: "Rv", 3: "S", 4: "S", 5: "E"}


@dataclass
class MigrationEvent:
    """One point changing set during an insert.

    ``delta_alpha_c`` is the walk step that led to the event, measured as
    the decrease of C; it is 0.0 on recruits into an empty S and on the
    end-of-walk case 5.
    """

    case_id: int
    index: int
    from_set: str
    to_set: str
    delta_alpha_c: float


def _rates(kmat, s_order, k_drive, n_drive):
    """Sensitivities per unit step of the walk.

    The driving coefficients outside S move by a vector d per unit step,
    given as ``k_drive = K @ d`` and ``n_drive = sum(d)``. Returns
    (beta, gamma): beta[0] is db and beta[1:] d alpha_S, chosen so every
    margin decision value stays pinned and the alphas keep summing to one;
    gamma is dg for every row of ``kmat``. Raises ImmobileError when the
    margin system over ``s_order`` is numerically singular.
    """
    k_s = kmat[:, s_order]
    q = np.zeros((len(s_order) + 1, len(s_order) + 1))
    q[0, 1:] = q[1:, 0] = 1.0
    q[1:, 1:] = k_s[s_order]
    # Q is symmetric, so its 2-norm condition number is max|lam| / min|lam|;
    # the negated test also rejects a NaN
    lam = np.abs(np.linalg.eigvalsh(q))
    if not lam.max() <= lam.min() * COND_LIMIT:
        raise ImmobileError("margin system is numerically singular")
    beta = -np.linalg.solve(q, np.concatenate(([n_drive], k_drive[s_order])))
    gamma = k_drive + k_s @ beta[1:] + beta[0]
    return beta, gamma


class _Working:
    """Mutable view over the enlarged training set during one insertion."""

    def __init__(self, m: OcsvmModel, x_c):
        self.x = np.vstack([m.x, np.atleast_2d(x_c)])
        self.alpha = np.concatenate([m.alpha, [0.0]])
        self.rho = m.rho
        self.c = m.c_bound  # current box bound
        self.kernel = m.kernel
        self.cand = self.x.shape[0] - 1
        # only ``filled`` columns hold values; nonzero alphas, S, candidate
        self.kmat = np.empty((self.cand + 1, self.cand + 1), order="F")
        self.filled = np.zeros(self.cand + 1, dtype=bool)
        self.fill(m.sv.tolist() + [self.cand])
        self.g0 = self.g()  # the decision values the walk starts from
        margin, at_bound, at_zero = kkt_masks(
            self.g0[: self.cand], m.alpha, m.c_bound)
        self.s_set = np.flatnonzero(margin).tolist()
        self.e_set = np.flatnonzero(at_bound).tolist()
        self.r_mask = np.append(at_zero, True)  # the candidate starts in Rv

    def g(self):
        return self.f_vals() - self.rho

    def f_vals(self):
        nz = self.alpha.nonzero()[0]
        return self.kmat[:, nz] @ self.alpha[nz]

    def fill(self, cols):
        """Compute the kernel columns ``cols`` that are not filled yet."""
        cols = [i for i in cols if not self.filled[i]]
        if cols:
            self.kmat[:, cols] = kernel_matrix(self.kernel, self.x,
                                               self.x[cols])
            self.filled[cols] = True

    def move(self, i, dst):
        """Move index i into set ``dst`` ("S", "E" or "Rv") and return the
        set it left; a point leaving for a bound set takes that bound's
        coefficient."""
        if self.r_mask[i]:
            src = "Rv"
        elif i in self.s_set:
            src = "S"
            self.s_set.remove(i)
        else:
            src = "E"
            self.e_set.remove(i)
        self.r_mask[i] = dst == "Rv"
        if dst == "S":
            self.fill([i])
            self.s_set.append(i)
        elif dst == "E":
            self.alpha[i] = self.c
            self.e_set.append(i)
        else:
            self.alpha[i] = 0.0
        return src

    def recruit_support(self, grow):
        """Shift rho until one decision value touches zero; return that
        point, the seed of an empty S. A growing candidate adds more mass
        than E sheds, so the seed must shrink: the largest f among E and
        the candidate, which keeps rho from passing the candidate's zero
        crossing. Otherwise the mass E releases needs an absorber from Rv.
        """
        f = self.f_vals()
        if grow:
            i = max(self.e_set + [self.cand], key=lambda j: (f[j], -j))
        elif self.r_mask.any():
            r = np.flatnonzero(self.r_mask)
            i = int(r[np.argmin(f[r])])  # the first of equal f: least index
        else:
            raise ImmobileError("no point available to seed the margin set")
        self.rho = float(f[i])
        return i


def _next_event(w: _Working, g, beta, gamma, grow, c_new):
    """(step, case_id, index) of the next event: the least step, then case
    id, then index. A step below -ZERO_STEP is not viable; the rest clamp
    at 0. C reaching ``c_new`` (case 0, no migration) ends the walk, which
    asks only while that step is positive. A growing candidate joins S when
    g_c reaches 0 (case 4) and takes no part in case 3.

    An event of S, E or the candidate can only come first with a step
    below case 0's. These are a few points each, so their steps are taken
    one by one on Python floats, the same IEEE operations numpy would do.
    Rv's steps are one vector over all rows, infinite off Rv.
    """
    limit = float(w.c - c_new)
    steps = []
    for i, a, b in zip(w.s_set, map(w.alpha.item, w.s_set),
                       beta[1:].tolist()):
        if b + 1.0 > 0:
            steps.append(((w.c - a) / (b + 1.0), 1, i))
        if b < 0:
            steps.append((-a / b, 2, i))
    for i, g_i, gamma_i in zip(w.e_set, map(g.item, w.e_set),
                               map(gamma.item, w.e_set)):
        if gamma_i > 0:
            steps.append((-g_i / gamma_i, 3, i))
    if grow and gamma[w.cand] > 0:
        steps.append((-float(g[w.cand]) / float(gamma[w.cand]), 4, w.cand))
    best = min([(limit, 0, -1)] + [(max(0.0, step), case_id, i)
                                   for step, case_id, i in steps
                                   if -ZERO_STEP < step < limit])
    r_in = w.r_mask & (gamma < 0)
    if grow:
        r_in[w.cand] = False
    r_steps = np.divide(-g, gamma, out=np.full(len(g), np.inf), where=r_in)
    low = r_steps.min()
    if not low > -ZERO_STEP:  # some step is not viable, or NaN
        r_steps[~(r_steps > -ZERO_STEP)] = np.inf
        low = r_steps.min()
    step = max(0.0, float(low))
    if step <= best[0]:  # otherwise Rv cannot win
        best = min(best, (step, 3, int(np.argmax(r_steps <= step))))
    return best


def _walk(w: _Working, c_new, events, on_event):
    """Slide the bound from the old C down to ``c_new`` while a candidate
    with g_c < 0 grows towards it, migrating points as needed. Returns the
    decision values of the state it ends in."""
    def migrate(case_id, idx, step, grow):
        src = w.move(idx, _DESTINATION[case_id])
        src = "candidate" if grow and idx == w.cand else src
        events.append(MigrationEvent(case_id, idx, src,
                                     _DESTINATION[case_id], step))
        on_event(w)

    c_old = w.c
    budget = MAX_EVENTS_PER_POINT * (w.x.shape[0] + 1)
    stall = 0
    g = w.g0
    while True:
        if budget <= 0:
            raise ImmobileError("homotopy walk exceeded event budget")
        budget -= 1
        # only from the old bound does rate n bring alpha_c to c_new with C;
        # in Rv only the growing candidate holds alpha > 0
        grow = bool(w.r_mask[w.cand] and (
            w.alpha[w.cand] > 0 or (w.c == c_old and g[w.cand] < 0)))
        if w.c - c_new <= ZERO_STEP:
            if grow:  # it reached the new bound together with C
                migrate(5, w.cand, 0.0, grow)
                return w.g()
            return g
        if not w.s_set:
            migrate(3, w.recruit_support(grow), 0.0, grow)
            g = w.g()
            continue
        drive = w.e_set + [w.cand] * grow
        rate = np.full(len(drive), -1.0)
        if grow:
            rate[-1] = w.cand
        k_drive = w.kmat[:, drive] @ rate
        # S as one index array for _rates' gathers; the rates are integers,
        # so their sum is exact in any order
        beta, gamma = _rates(w.kmat, np.array(w.s_set), k_drive,
                             float(w.cand * grow - len(w.e_set)))
        step, case_id, idx = _next_event(w, g, beta, gamma, grow, c_new)
        if case_id in (1, 2, 3) and step <= ZERO_STEP:
            stall += 1
            if stall > len(w.alpha) + 4:
                raise ImmobileError("homotopy walk made no numerical progress")
        else:
            stall = 0

        # point by point: the same IEEE products and sums as a vector update
        for i, rate_i in zip(w.s_set + drive,
                             beta[1:].tolist() + rate.tolist()):
            w.alpha[i] += rate_i * step
        w.rho -= beta[0] * step
        w.c -= step
        if case_id != 0:
            migrate(case_id, idx, step, grow)
        g = w.g()


def add_sample(m: OcsvmModel, x_c, on_event=None):
    """Insert one sample, returning (new_model, migration_events).

    The result is a KKT point of the enlarged problem with the bound
    recomputed for n+1 training vectors, i.e. the batch optimum target.
    Raises ImmobileError on numerical degeneracy; callers fall back to
    batch retraining.
    """
    x_c = np.asarray(x_c, dtype=np.float64)
    if not np.all(np.isfinite(x_c)):
        raise ValidationError("candidate vector must be finite")
    events = []
    w = _Working(m, x_c)
    c_new = 1.0 / (m.nu * (m.n + 1))
    try:
        g = _walk(w, c_new, events, on_event or (lambda _w: None))
    except np.linalg.LinAlgError as exc:
        raise ImmobileError(f"linear algebra failure: {exc}") from exc
    if not w.s_set:
        # rho is only pinned to an interval; match the batch convention
        w.rho = recover_rho(w.f_vals(), w.alpha, c_new)
        g = w.g()
    try:
        kkt_masks(g, w.alpha, c_new)
    except KktViolationError as exc:
        raise ImmobileError(f"update left a KKT violation: {exc}") from exc
    return OcsvmModel(w.x, w.alpha, w.rho, m.nu, m.kernel), events
