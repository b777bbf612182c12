"""Exact single-sample updates for a trained one-class SVM.

Adding a point changes two things at once: the new candidate's coefficient
must grow from zero until its own optimality condition holds, and the box
bound C = 1/(nu*n) shrinks because n grew. Both are one homotopy walk that
keeps every retained point KKT-consistent after each migration event. Only
the quantity that drives the walk changes between its two legs:

* while the candidate's coefficient grows (at the old bound), the classic
  five migration cases decide which point changes set at each breakpoint;
* once the candidate is consistent, C slides down to the new value; points
  pinned at the bound ride it downward while the margin set (now possibly
  containing the candidate) absorbs the released mass. The candidate takes
  part as an ordinary point here, which rules out the all-at-bound
  deadlock: if every point sat at the bound then (n+1)*C = 1 would put C
  below the target.

Internally the bias is carried as b = -rho so the bordered margin system
Q = [[0, 1^T], [1, K_SS]] stays symmetric; sensitivities are reported in
b-space (beta[0] is db per unit step, so d rho = -beta[0] * step). Each
step of the walk assembles Q from the kernel columns of the current margin
set S and solves it once; no inverse is carried from step to step, so a
point joining or leaving S is a list edit. A step whose Q has a 2-norm
condition number above ``COND_LIMIT`` raises ImmobileError.

An insert evaluates kernel columns only for S, E, the candidate and the
points recruited into S, on first use, never the whole (n+1)^2 Gram.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ImmobileError, KktViolationError, ValidationError
from .ocsvm import KKT_TOL, OcsvmModel, kernel_matrix, partition, recover_rho

ZERO_STEP = 1e-14
COND_LIMIT = 1e12  # largest condition number of Q a step may solve
MAX_EVENTS_PER_POINT = 60

# set each migration case moves a point to; case 3 comes from E or Rv
_DESTINATION = {1: "E", 2: "Rv", 3: "S", 4: "S", 5: "E"}


@dataclass
class MigrationEvent:
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


def _select(steps, cases, index):
    """The next migration: the smallest viable step, ties broken on case id
    then index. A step below -ZERO_STEP is not viable; the rest clamp at 0.

    Returns (step, case_id, index).
    """
    viable = steps > -ZERO_STEP
    if not np.any(viable):
        raise ImmobileError("no positive coefficient increment available")
    steps = np.maximum(steps[viable], 0.0)
    cases, index = cases[viable], index[viable]
    k = np.lexsort((index, cases, steps))[0]
    return float(steps[k]), int(cases[k]), int(index[k])


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
        self.fill(np.append(np.flatnonzero(m.alpha), self.cand))
        s_idx, e_idx, r_idx = partition(self.g()[: self.cand], m.alpha,
                                        m.c_bound)
        self.s_set, self.e_set = s_idx, e_idx
        self.r_set = r_idx + [self.cand]

    def g(self, i=None):
        g = self.f_vals() - self.rho
        return g if i is None else g[i]

    def f_vals(self):
        nz = np.flatnonzero(self.alpha)
        return self.kmat[:, nz] @ self.alpha[nz]

    def fill(self, cols):
        """Compute the kernel columns ``cols`` that are not filled yet."""
        cols = np.asarray(cols, dtype=int)[~self.filled[cols]]
        if cols.size:
            self.kmat[:, cols] = kernel_matrix(self.kernel, self.x,
                                               self.x[cols])
            self.filled[cols] = True

    def move(self, i, dst):
        """Move index i into set ``dst`` ("S", "E" or "Rv"); a point leaving
        for a bound set takes that bound's coefficient."""
        sets = {"S": self.s_set, "E": self.e_set, "Rv": self.r_set}
        next(v for v in sets.values() if i in v).remove(i)
        if dst == "S":
            self.fill([i])
        else:
            self.alpha[i] = self.c if dst == "E" else 0.0
        sets[dst].append(i)

    def recruit_support(self, growing):
        """Seed S by shifting rho until one decision value touches zero.

        While the candidate grows the others must give up mass, so the
        recruit comes from E (a point whose alpha can shrink); while the
        bound slides the released mass needs an absorber from Rv. Either
        pool falls back to the other when empty. The growing candidate is
        never recruited; in the bound leg it is an ordinary point.
        """
        f = self.f_vals()
        r_pool = [i for i in self.r_set if not (growing and i == self.cand)]
        from_e = bool(self.e_set) if growing else not r_pool
        pool = self.e_set if from_e else r_pool
        if not pool:
            raise ImmobileError("no point available to seed the margin set")
        if from_e:
            i = max(pool, key=lambda j: (f[j], -j))
        else:
            i = min(pool, key=lambda j: (f[j], j))
        self.rho = float(f[i])
        self.move(i, "S")
        return i, "E" if from_e else "Rv"


def _breakpoints(w: _Working, g, beta, gamma, dc, growing, c_new):
    """(steps, case ids, indices) of every event the walk can meet next.

    ``dc`` is the bound's rate per unit step. While the candidate grows it
    ends the leg by reaching S (case 4) or the bound (case 5); otherwise the
    bound reaching ``c_new`` ends the walk (case 0, no migration).
    """
    s = np.asarray(w.s_set, dtype=int)
    b = beta[1:]
    e = np.asarray(w.e_set, dtype=int)
    r = np.asarray(w.r_set, dtype=int)
    r = r[r != w.cand] if growing else r
    up, down = b - dc > 0, b < 0
    e_in, r_in = e[gamma[e] > 0], r[gamma[r] < 0]
    parts = [
        ((w.c - w.alpha[s[up]]) / (b[up] - dc), 1, s[up]),
        (-w.alpha[s[down]] / b[down], 2, s[down]),
        (-g[e_in] / gamma[e_in], 3, e_in),
        (-g[r_in] / gamma[r_in], 3, r_in),
    ]
    c = w.cand
    if not growing:
        parts.append(([w.c - c_new], 0, [-1]))
    else:
        if gamma[c] > 0:
            parts.append(([-g[c] / gamma[c]], 4, [c]))
        parts.append(([w.c - w.alpha[c]], 5, [c]))
    steps = np.concatenate([np.asarray(p[0], dtype=float) for p in parts])
    cases = np.concatenate([np.full(len(p[2]), p[1]) for p in parts])
    index = np.concatenate([np.asarray(p[2], dtype=int) for p in parts])
    return steps, cases, index


def _walk(w: _Working, c_new, events, on_event):
    """Grow the candidate's coefficient until it is consistent, then slide
    the bound from the old C down to ``c_new``, migrating as needed."""
    growing = w.g(w.cand) < 0.0
    budget = MAX_EVENTS_PER_POINT * (w.x.shape[0] + 1)
    stall = 0
    while True:
        if budget <= 0:
            raise ImmobileError("homotopy walk exceeded event budget")
        budget -= 1
        g = w.g()
        if growing and g[w.cand] >= -KKT_TOL:
            growing = False  # consistent while others migrated
        if not growing and w.c - c_new <= ZERO_STEP:
            return
        if not w.s_set:
            i, src = w.recruit_support(growing)
            events.append(MigrationEvent(3, i, src, "S", 0.0))
            on_event(w)
            continue
        if growing:
            drive, sign, dc = [w.cand], 1.0, 0.0
        else:
            drive, sign, dc = list(w.e_set), -1.0, -1.0
        k_drive = sign * w.kmat[:, drive].sum(axis=1)
        beta, gamma = _rates(w.kmat, w.s_set, k_drive, sign * len(drive))
        step, case_id, idx = _select(
            *_breakpoints(w, g, beta, gamma, dc, growing, c_new))
        if case_id in (1, 2, 3) and step <= ZERO_STEP:
            stall += 1
            if stall > len(w.alpha) + 4:
                raise ImmobileError("homotopy walk made no numerical progress")
        else:
            stall = 0

        w.alpha[w.s_set] += beta[1:] * step
        w.rho -= beta[0] * step
        w.alpha[drive] += sign * step
        w.c += dc * step
        if case_id == 0:
            continue
        if case_id >= 4:
            src, growing = "candidate", False
        elif case_id == 3:
            src = "E" if idx in w.e_set else "Rv"
        else:
            src = "S"
        w.move(idx, _DESTINATION[case_id])
        events.append(MigrationEvent(case_id, idx, src,
                                     _DESTINATION[case_id], step))
        on_event(w)


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
        _walk(w, c_new, events, on_event or (lambda _w: None))
    except np.linalg.LinAlgError as exc:
        raise ImmobileError(f"linear algebra failure: {exc}") from exc
    if not w.s_set:
        # rho is only pinned to an interval; match the batch convention
        w.rho = recover_rho(w.f_vals(), w.alpha, c_new)
    try:
        partition(w.g(), w.alpha, c_new)
    except KktViolationError as exc:
        raise ImmobileError(f"update left a KKT violation: {exc}") from exc
    return OcsvmModel(w.x, w.alpha, w.rho, m.nu, m.kernel), events
