"""Bounded linear temporal logic (BLTL) over sampled trajectories.

The paper's SMC framework ([11]-[13], Fig. 2 left loop) uses bounded
LTL to "encode quantitative behavioral constraints and qualitative
properties of biochemical networks".  Formulas are interpreted over a
finitely sampled trajectory; temporal bounds are in model time units.

Syntax::

    prop(formula)                      state predicate (an L_RF formula)
    ~phi, phi & psi, phi | psi         boolean connectives
    F(T, phi)   "eventually within T"
    G(T, phi)   "always within T"
    U(T, phi, psi)  "phi until psi, within T"

Quantitative robustness semantics (max/min margins) are also provided;
they drive SMC-based parameter search toward satisfaction.

Evaluation is one bottom-up array pass (Donzé, Ferrère & Maler,
"Efficient Robust Monitoring for STL", CAV 2013): every formula node is
evaluated once, over the array of instants its parent needs, and each
temporal node reduces its child's values over its windows.  The pass
keeps the semantics of a per-instant recursive walk bit for bit:

* state predicates run over dense-output columns
  (:meth:`repro.odes.Trajectory.at_many`) with float operations whose
  bits equal :meth:`repro.expr.Expr.eval`;
* boolean values are three-valued (false / true / error) and reduce in
  the walk's short-circuit order, so an evaluation error (a division by
  zero, a math domain error, an unbound variable, a time outside the
  trajectory) raises exactly when the walk would have reached it;
* margins fold like Python's ``min`` / ``max`` over the window, so NaN
  and signed-zero results are the walk's too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.expr import Binary, Const, Expr, Unary, Var
from repro.expr.ast import UNARY_FLOAT
from repro.hybrid import formula_margin
from repro.logic import And, Atom, FalseFormula, Formula, Or, TrueFormula
from repro.odes import Trajectory

__all__ = ["BLTL", "Prop", "NotOp", "AndOp", "OrOp", "Eventually", "Always",
           "Until", "At", "at_time", "prop", "F", "G", "U", "monitor",
           "robustness", "window_times", "WINDOW_EPS"]

#: Tolerance of the closed temporal-window convention: a sample time
#: within ``WINDOW_EPS`` of a window endpoint counts as lying *on* it.
WINDOW_EPS = 1e-12


class BLTL:
    """Base class of BLTL formulas."""

    __slots__ = ()

    def __and__(self, other: "BLTL") -> "BLTL":
        return AndOp(self, other)

    def __or__(self, other: "BLTL") -> "BLTL":
        return OrOp(self, other)

    def __invert__(self) -> "BLTL":
        return NotOp(self)

    def horizon(self) -> float:
        """The time window the formula can look ahead."""
        raise NotImplementedError


@dataclass(frozen=True)
class Prop(BLTL):
    """Atomic state predicate: an L_RF formula over the state variables."""

    formula: Formula

    def horizon(self) -> float:
        """Zero: a state predicate looks at one instant."""
        return 0.0


@dataclass(frozen=True)
class NotOp(BLTL):
    """Negation ``~arg``."""

    arg: BLTL

    def horizon(self) -> float:
        """The operand's horizon."""
        return self.arg.horizon()


@dataclass(frozen=True)
class AndOp(BLTL):
    """Conjunction ``left & right``."""

    left: BLTL
    right: BLTL

    def horizon(self) -> float:
        """The larger operand horizon."""
        return max(self.left.horizon(), self.right.horizon())


@dataclass(frozen=True)
class OrOp(BLTL):
    """Disjunction ``left | right``."""

    left: BLTL
    right: BLTL

    def horizon(self) -> float:
        """The larger operand horizon."""
        return max(self.left.horizon(), self.right.horizon())


@dataclass(frozen=True)
class Eventually(BLTL):
    """``F(bound, arg)``: ``arg`` holds at some instant within ``bound``."""

    bound: float
    arg: BLTL

    def horizon(self) -> float:
        """The bound plus the operand's horizon."""
        return self.bound + self.arg.horizon()


@dataclass(frozen=True)
class Always(BLTL):
    """``G(bound, arg)``: ``arg`` holds at every instant within ``bound``."""

    bound: float
    arg: BLTL

    def horizon(self) -> float:
        """The bound plus the operand's horizon."""
        return self.bound + self.arg.horizon()


@dataclass(frozen=True)
class Until(BLTL):
    """``U(bound, left, right)``: ``left`` holds until ``right``, within ``bound``."""

    bound: float
    left: BLTL
    right: BLTL

    def horizon(self) -> float:
        """The bound plus the larger operand horizon."""
        return self.bound + max(self.left.horizon(), self.right.horizon())


@dataclass(frozen=True)
class At(BLTL):
    """Time-anchored check: ``arg`` holds exactly ``offset`` time units
    from the evaluation instant (checkpoint-band encoding helper)."""

    offset: float
    arg: BLTL

    def horizon(self) -> float:
        """The offset plus the operand's horizon."""
        return self.offset + self.arg.horizon()


def prop(formula: Formula) -> Prop:
    """Wrap an L_RF state predicate as a BLTL formula."""
    return Prop(formula)


def F(bound: float, phi: BLTL | Formula) -> Eventually:
    """Eventually within ``bound`` time units."""
    return Eventually(float(bound), _as_bltl(phi))


def G(bound: float, phi: BLTL | Formula) -> Always:
    """Always during the next ``bound`` time units."""
    return Always(float(bound), _as_bltl(phi))


def U(bound: float, phi: BLTL | Formula, psi: BLTL | Formula) -> Until:
    """``phi`` holds until ``psi``, with ``psi`` within ``bound``."""
    return Until(float(bound), _as_bltl(phi), _as_bltl(psi))


def at_time(offset: float, phi: BLTL | Formula) -> At:
    """``phi`` holds exactly ``offset`` time units ahead."""
    return At(float(offset), _as_bltl(phi))


def _as_bltl(x: BLTL | Formula) -> BLTL:
    if isinstance(x, BLTL):
        return x
    if isinstance(x, Formula):
        return Prop(x)
    raise TypeError(f"expected BLTL or Formula, got {type(x).__name__}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def monitor(
    phi: BLTL | Formula,
    traj: Trajectory,
    t_start: float = 0.0,
    extra_env: Mapping[str, float] | None = None,
) -> bool:
    """Does the sampled trajectory satisfy ``phi`` from ``t_start``?

    Temporal operators quantify over the trajectory's sample times
    within their bound (plus the exact window endpoints).  Raises
    ``ValueError`` when the trajectory ends before the formula's
    horizon (with ``1e-9`` slack).
    """
    phi = _as_bltl(phi)
    _check_horizon(phi, traj, t_start)
    return bool(_truth(phi, traj, [float(t_start)], extra_env)[0])


def robustness(
    phi: BLTL | Formula,
    traj: Trajectory,
    t_start: float = 0.0,
    extra_env: Mapping[str, float] | None = None,
) -> float:
    """Quantitative satisfaction margin (positive iff satisfied).

    Standard max/min semantics: Eventually = max over window, Always =
    min over window, negation flips sign.  Used as the fitness signal of
    SMC-based parameter search.  Like :func:`monitor`, raises
    ``ValueError`` when the trajectory ends before the horizon, instead
    of scoring a window it never saw.
    """
    phi = _as_bltl(phi)
    _check_horizon(phi, traj, t_start)
    return float(_margin(phi, traj, [float(t_start)], extra_env)[0])


def _check_horizon(phi: BLTL, traj: Trajectory, t_start: float) -> None:
    if t_start + phi.horizon() > traj.t_end + 1e-9:
        raise ValueError(
            f"trajectory ends at {traj.t_end}, but formula needs horizon "
            f"{t_start + phi.horizon()}"
        )


def _truth(phi: BLTL, traj: Trajectory, ts,
           extra_env: Mapping[str, float] | None = None) -> np.ndarray:
    """Boolean value of ``phi`` at each instant of ``ts`` (no horizon check).

    Raises the first evaluation error the per-instant walk would meet,
    taking the instants in order.
    """
    run = _Pass(traj, extra_env, robust=False)
    codes = run.node(phi, np.asarray(ts, dtype=float))
    bad = codes >= _ERR
    if np.count_nonzero(bad):
        run.raise_fault(int(codes[bad.argmax()]) - _ERR)
    return codes == _TRUE


def _margin(phi: BLTL, traj: Trajectory, ts,
            extra_env: Mapping[str, float] | None = None) -> np.ndarray:
    """Robustness of ``phi`` at each instant of ``ts`` (no horizon check).

    Raises the first evaluation error the per-instant walk would meet,
    taking the instants in order.
    """
    run = _Pass(traj, extra_env, robust=True)
    values, faults = run.node(phi, np.asarray(ts, dtype=float))
    bad = faults >= 0
    if np.count_nonzero(bad):
        run.raise_fault(int(faults[bad.argmax()]))
    return values


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------


def window_times(times, lo: float, hi: float,
                 t_min: float | None = None,
                 t_max: float | None = None) -> list[float]:
    """Evaluation instants of the temporal window ``[lo, hi]``.

    This is the single place that defines the discretization convention
    of every temporal operator, shared by the batch monitor
    (:func:`monitor` / :func:`robustness`) and the online monitor
    (:mod:`repro.monitor.automaton`); the array pass applies the same
    rule to many windows at once (``_spans``):

    * The window is **closed on both endpoints**.  Every sample time in
      ``times`` lying within ``WINDOW_EPS`` of ``[lo, hi]`` is an
      evaluation instant (a sample within tolerance of an endpoint
      *stands in* for that endpoint -- the exact endpoint is then not
      inserted).
    * When no sample covers an endpoint, the exact endpoint is inserted
      so the window never evaluates over an empty or truncated instant
      set: ``lo`` is prepended when the first selected sample lies more
      than ``WINDOW_EPS`` after it, and ``hi`` is appended when the last
      instant lies more than ``WINDOW_EPS`` before it.  Both endpoint
      rules use the same ``WINDOW_EPS`` tolerance.
    * Inserted endpoints are clamped into ``[t_min, t_max]`` when given
      (the sampled span of the trajectory), so a window that overshoots
      the final sample by less than the :func:`monitor` horizon slack
      evaluates at the last sample instead of asking the dense-output
      interpolant for a time it cannot reach.

    Parameters
    ----------
    times:
        Sorted sample times (a numpy array).
    lo, hi:
        The closed window bounds (``lo <= hi``).
    t_min, t_max:
        Optional clamp range for *inserted* endpoints (selected sample
        times are never clamped).
    """
    times = np.asarray(times, dtype=float)
    a, b, lo_in, lo_pt, hi_in, hi_pt = _spans(
        times, np.array([float(lo)]), np.array([float(hi)]), t_min, t_max
    )
    out = times[a[0]:b[0]].tolist()
    if lo_in[0]:
        out.insert(0, float(lo_pt[0]))
    if hi_in[0]:
        out.append(float(hi_pt[0]))
    return out


def _spans(times: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           t_min: float | None, t_max: float | None):
    """The windows ``[lo[j], hi[j]]`` as sample ranges plus endpoints.

    Window ``j`` is ``[lo_pt[j]] * lo_in[j] + times[a[j]:b[j]] +
    [hi_pt[j]] * hi_in[j]`` -- the rule :func:`window_times` documents.
    Clamps use Python's ``max`` / ``min`` tie rule, so a ``-0.0`` bound
    is kept as it is.
    """
    a = times.searchsorted(lo - WINDOW_EPS, "left")
    b = times.searchsorted(hi + WINDOW_EPS, "right")
    empty = a >= b
    n = len(times)
    lo_pt, hi_pt = lo, hi
    if t_min is not None:
        lo_pt = np.where(t_min > lo_pt, t_min, lo_pt)
        hi_pt = np.where(t_min > hi_pt, t_min, hi_pt)
    if t_max is not None:
        lo_pt = np.where(t_max < lo_pt, t_max, lo_pt)
        hi_pt = np.where(t_max < hi_pt, t_max, hi_pt)
    if n:
        first = times[np.minimum(a, n - 1)]
        last = times[np.maximum(b - 1, 0)]
    else:
        first = last = lo_pt
    lo_in = empty | (first > lo + WINDOW_EPS)
    hi_in = np.where(empty, lo_pt, last) < hi - WINDOW_EPS
    return a, b, lo_in, lo_pt, hi_in, hi_pt


# ----------------------------------------------------------------------
# The array pass
# ----------------------------------------------------------------------

# Boolean values are int64 codes: _FALSE, _TRUE, or _ERR + k for the
# k-th recorded fault.  Margins are a float64 array plus an int64 fault
# array (-1 for none).
_FALSE, _TRUE, _ERR = 0, 1, 2


def _first(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per window, the first ``j`` in ``[a[w], b[w])`` with ``mask[j]``,
    else ``b[w]``."""
    out = b.copy()
    for w, (i, j) in enumerate(zip(a.tolist(), b.tolist())):
        if i < j:
            k = i + int(mask[i:j].argmax())
            if mask[k]:
                out[w] = k
    return out


def _take(values: np.ndarray, idx: np.ndarray, fill):
    """``values[idx]`` with out-of-range indices reading ``fill``."""
    if not len(values):
        return np.full(len(idx), fill, dtype=np.asarray(fill).dtype)
    return values[np.minimum(idx, len(values) - 1)]


def _range_extreme(v: np.ndarray, a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """``op``-reduce (``np.fmax`` / ``np.fmin``) of ``v[a[w]:b[w]]`` per
    window; empty and all-NaN ranges give NaN."""
    return np.array([op.reduce(v[i:j]) if i < j else np.nan
                     for i, j in zip(a.tolist(), b.tolist())], dtype=float)


class _Pass:
    """One evaluation of a formula tree over one trajectory.

    ``node(phi, ts)`` evaluates ``phi`` at every instant of ``ts`` and
    returns boolean codes (``robust=False``) or ``(margins, faults)``.
    Faults are recorded as ``(Prop, t)`` and re-raised by evaluating
    that predicate the scalar way at ``t``, which raises the very
    exception the per-instant walk raises.
    """

    def __init__(self, traj: Trajectory, extra_env, robust: bool):
        self.traj = traj
        self.env = dict(extra_env or {})
        self.robust = robust
        self.faults: list[tuple[Prop, float]] = []
        self.names = list(traj.names)

    def raise_fault(self, k: int) -> None:
        """Raise the exception of recorded fault ``k``."""
        p, t = self.faults[k]
        env = {**self.env, **self.traj.at(t)}
        if self.robust:
            formula_margin(p.formula, env)
        else:
            p.formula.eval(env)
        raise RuntimeError(
            f"BLTL array pass flagged {p} at t={t}, but its scalar "
            f"evaluation succeeds; this is an evaluator bug"
        )

    def node(self, phi: BLTL, ts: np.ndarray):
        """Evaluate ``phi`` at every instant of ``ts``."""
        with np.errstate(all="ignore"):
            return self._node(phi, ts)

    def _node(self, phi: BLTL, ts: np.ndarray):
        if isinstance(phi, Prop):
            return self._prop(phi, ts)
        if isinstance(phi, NotOp):
            if self.robust:
                v, f = self._node(phi.arg, ts)
                return -v, f
            c = self._node(phi.arg, ts)
            return np.where(c < _ERR, 1 - c, c)
        if isinstance(phi, (AndOp, OrOp)):
            return self._connective(phi, ts)
        if isinstance(phi, (Eventually, Always, Until)):
            return self._temporal(phi, ts)
        if isinstance(phi, At):
            return self._node(phi.arg, ts + phi.offset)
        raise TypeError(type(phi).__name__)

    # -- state predicates ------------------------------------------------
    def _prop(self, p: Prop, ts: np.ndarray):
        traj = self.traj
        ok = (ts >= traj.t0 - 1e-12) & (ts <= traj.t_end + 1e-12)
        m = np.count_nonzero(ok)
        env = dict(self.env)
        if m:
            rows = traj.at_many(ts if m == len(ts) else ts[ok])
            env.update(zip(self.names, rows.T))
        if self.robust:
            v, err = _formula_margin_cols(p.formula, env, m)
            values = np.full(len(ts), np.nan)
            values[ok] = v
            bad = ~ok
            if err is not None:
                bad[ok] = err
            faults = np.full(len(ts), -1, dtype=np.int64)
            faults[bad] = self._record(p, ts[bad])
            return values, faults
        codes = np.full(len(ts), _ERR, dtype=np.int64)
        codes[ok] = _formula_truth_cols(p.formula, env, m)
        bad = codes >= _ERR
        codes[bad] = _ERR + self._record(p, ts[bad])
        return codes

    def _record(self, p: Prop, ts: np.ndarray) -> np.ndarray:
        first = len(self.faults)
        self.faults.extend((p, t) for t in ts.tolist())
        return np.arange(first, len(self.faults), dtype=np.int64)

    # -- connectives -----------------------------------------------------
    def _connective(self, phi, ts: np.ndarray):
        is_and = isinstance(phi, AndOp)
        if self.robust:
            lv, lf = self._node(phi.left, ts)
            rv, rf = self._node(phi.right, ts)
            better = rv < lv if is_and else rv > lv
            return np.where(better, rv, lv), np.where(lf >= 0, lf, rf)
        left = self._node(phi.left, ts)
        # the right operand is reached where the left one does not decide
        need = left == (_TRUE if is_and else _FALSE)
        if not np.count_nonzero(need):
            return left
        out = left.copy()
        out[need] = self._node(phi.right, ts[need])
        return out

    # -- temporal operators ----------------------------------------------
    def _temporal(self, phi, ts: np.ndarray):
        traj = self.traj
        times = traj.times
        a, b, lo_in, lo_pt, hi_in, hi_pt = _spans(
            times, ts, ts + phi.bound, traj.t0, traj.t_end
        )
        # the child runs once over the union of the windows' sample
        # ranges plus the endpoints that some window inserts
        live = a < b
        any_live = np.count_nonzero(live)
        base = int(a[live].min()) if any_live else 0
        top = int(b[live].max()) if any_live else 0
        a = np.where(live, a - base, 0)
        b = np.where(live, b - base, 0)
        n = top - base
        inst = np.concatenate([times[base:top], lo_pt[lo_in], hi_pt[hi_in]])
        kids = (phi.left, phi.right) if isinstance(phi, Until) else (phi.arg,)
        parts = []
        for kid in kids:
            out = self._node(kid, inst)
            parts.append(_Split(out, n, lo_in, hi_in, self.robust))
        if isinstance(phi, Until):
            if self.robust:
                return _until_margin(parts[0], parts[1], a, b, lo_in, hi_in)
            return _until_truth(parts[0], parts[1], a, b, lo_in, hi_in)
        is_f = isinstance(phi, Eventually)
        if self.robust:
            return _window_margin(parts[0], a, b, lo_in, hi_in, is_f)
        return _window_truth(parts[0], a, b, lo_in, hi_in, is_f)


class _Split:
    """A child's values over ``[samples, lo endpoints, hi endpoints]``.

    ``s`` holds the sample range; ``lo`` / ``hi`` are per window,
    meaningful where the window inserts that endpoint.  In the margin
    pass, ``sf`` / ``lof`` / ``hif`` are the matching fault ids.
    """

    __slots__ = ("s", "lo", "hi", "sf", "lof", "hif")

    def __init__(self, out, n: int, lo_in: np.ndarray, hi_in: np.ndarray,
                 robust: bool):
        n_lo = int(lo_in.sum())
        values, faults = out if robust else (out, None)
        self.s, self.lo, self.hi = _cut(values, n, n_lo, lo_in, hi_in)
        if faults is not None:
            self.sf, self.lof, self.hif = _cut(faults, n, n_lo, lo_in, hi_in)

    def window(self, w: int, a, b, lo_in, hi_in):
        """Window ``w``'s values, then its faults, in window order."""
        lo = slice(w, w + 1 if lo_in[w] else w)
        hi = slice(w, w + 1 if hi_in[w] else w)
        sl = slice(int(a[w]), int(b[w]))
        return (np.concatenate([self.lo[lo], self.s[sl], self.hi[hi]]),
                np.concatenate([self.lof[lo], self.sf[sl], self.hif[hi]]))


def _cut(values: np.ndarray, n: int, n_lo: int, lo_in, hi_in):
    """Split ``[samples, lo endpoints, hi endpoints]`` and spread the
    endpoint values onto their windows (absent ones read NaN or -1)."""
    fill = np.nan if values.dtype.kind == "f" else -1

    def spread(part, mask):
        out = np.full(len(mask), fill, dtype=values.dtype)
        out[mask] = part
        return out

    return (values[:n], spread(values[n:n + n_lo], lo_in),
            spread(values[n + n_lo:], hi_in))


def _window_truth(c: _Split, a, b, lo_in, hi_in, is_f: bool) -> np.ndarray:
    """F: the first non-false value of each window; G: the first non-true."""
    neutral = _FALSE if is_f else _TRUE
    k = _first(c.s != neutral, a, b)
    res = np.where(hi_in & (c.hi != neutral), c.hi, neutral)
    res = np.where(k < b, _take(c.s, k, neutral), res)
    return np.where(lo_in & (c.lo != neutral), c.lo, res)


def _until_truth(left: _Split, right: _Split, a, b, lo_in, hi_in) -> np.ndarray:
    """The first instant where ``right`` is not false decides; if it is
    true, ``left`` must be true at every earlier window instant."""
    k = _first(right.s != _FALSE, a, b)
    r_hit = k < b
    right_code = np.where(r_hit, _take(right.s, k, _FALSE), right.hi)
    hit = r_hit | (hi_in & (right.hi != _FALSE))
    stop = np.where(r_hit, k, b)
    j = _first(left.s != _TRUE, a, stop)
    left_code = np.where(j < stop, _take(left.s, j, _TRUE), _TRUE)
    left_code = np.where(lo_in & (left.lo != _TRUE), left.lo, left_code)
    res = np.where(right_code == _TRUE, left_code, right_code)
    res = np.where(hit, res, _FALSE)
    return np.where(lo_in & (right.lo != _FALSE), right.lo, res)


def _fold_extreme(first, parts, is_max: bool):
    """Python's ``max`` / ``min`` over a window, from per-part summaries.

    ``first`` is each window's first value; ``parts`` lists, in window
    order, ``(present, extreme, has_zero, zero)`` per part -- its
    NaN-ignoring extreme and its first zero.  Python keeps the running
    value unless a later one is strictly better: a NaN first value
    stays, later NaNs are skipped, and a tie keeps the earlier value,
    which only shows for ``-0.0`` against ``0.0``.
    """
    op = np.fmax if is_max else np.fmin
    best = np.full(len(first), np.nan)
    for present, ext, _, _ in parts:
        best = np.where(present, op(best, ext), best)
    zero = np.full(len(first), np.nan)
    for present, _, has_zero, z in reversed(parts):
        zero = np.where(present & has_zero, z, zero)
    best = np.where(best == 0.0, zero, best)
    return np.where(np.isnan(first), first, best)


def _window_margin(c: _Split, a, b, lo_in, hi_in, is_f: bool):
    """F: the fold-max of each window; G: the fold-min.  Any fault in the
    window raises, the first one in window order."""
    op = np.fmax if is_f else np.fmin
    nonempty = a < b
    nz = _first(c.s == 0.0, a, b)
    has_z, z = nz < b, _take(c.s, nz, 0.0)
    parts = [
        (lo_in, c.lo, c.lo == 0.0, c.lo),
        (nonempty, _range_extreme(c.s, a, b, op), has_z, z),
        (hi_in, c.hi, c.hi == 0.0, c.hi),
    ]
    first = np.where(lo_in, c.lo, np.where(nonempty, _take(c.s, a, np.nan), c.hi))
    values = _fold_extreme(first, parts, is_f)
    k = _first(c.sf >= 0, a, b)
    faults = np.where(hi_in, c.hif, -1)
    faults = np.where(k < b, _take(c.sf, k, -1), faults)
    faults = np.where(lo_in & (c.lof >= 0), c.lof, faults)
    return values, faults


def _until_margin(left: _Split, right: _Split, a, b, lo_in, hi_in):
    """``max_i min(right_i, min(left_0 .. left_{i-1}))`` per window.

    A prefix fold of the left operand replaces the walk's re-scan of
    every prefix.  Faults keep the walk's order: step ``i`` evaluates
    ``right_i`` and then the left prefix, whose only new instant is
    ``left_{i-1}`` (the last left value is never evaluated).
    """
    values = np.empty(len(a))
    faults = np.full(len(a), -1, dtype=np.int64)
    for w in range(len(a)):
        r, rf = right.window(w, a, b, lo_in, hi_in)
        lv, lf = left.window(w, a, b, lo_in, hi_in)
        m = len(r)
        ri = int(np.argmax(rf >= 0)) if (rf >= 0).any() else m
        lbad = lf[:-1] >= 0
        li = int(np.argmax(lbad)) if lbad.any() else m
        if ri < m or li < m:
            faults[w] = rf[ri] if ri <= li + 1 else lf[li]
            continue
        prefix = np.full(m, np.inf)
        if m > 1:
            pre = np.fmin.accumulate(lv[:-1])
            zeros = np.flatnonzero(lv[:-1] == 0.0)
            if len(zeros):
                tail = pre[zeros[0]:]
                tail[tail == 0.0] = lv[zeros[0]]
            if np.isnan(lv[0]):
                pre[:] = np.nan
            prefix[1:] = pre
        mins = np.where(prefix < r, prefix, r)
        best = np.fmax.reduce(mins)
        if np.isnan(best) or best == -math.inf:
            values[w] = -math.inf
        elif best == 0.0:
            values[w] = mins[np.flatnonzero(mins == 0.0)[0]]
        else:
            values[w] = best
    return values, faults


# ----------------------------------------------------------------------
# State predicates over columns
# ----------------------------------------------------------------------


def _expr_cols(e: Expr, env: Mapping, m: int):
    """``e`` over ``m`` instants: ``(values, errors)``, ``errors`` a bool
    mask of the instants where :meth:`Expr.eval` raises (or ``None``).

    Every float operation is the one ``Expr.eval`` performs, elementwise.
    """
    if isinstance(e, Const):
        return np.full(m, e.value), None
    if isinstance(e, Var):
        if e.name not in env:
            return np.full(m, np.nan), np.ones(m, dtype=bool)
        v = env[e.name]
        return (v if isinstance(v, np.ndarray) else np.full(m, float(v))), None
    if isinstance(e, Unary):
        x, err = _expr_cols(e.arg, env, m)
        if e.op == "neg":
            return -x, err
        if e.op == "abs":
            return np.abs(x), err
        return _pointwise(UNARY_FLOAT[e.op], err, x)
    if isinstance(e, Binary):
        x, ex = _expr_cols(e.left, env, m)
        y, ey = _expr_cols(e.right, env, m)
        err = ex if ey is None else (ey if ex is None else ex | ey)
        op = e.op
        if op == "add":
            return x + y, err
        if op == "sub":
            return x - y, err
        if op == "mul":
            return x * y, err
        if op == "div":
            zero = y == 0.0
            if zero.any():
                err = zero if err is None else err | zero
            return x / y, err
        if op == "pow":
            return _pointwise(math.pow, err, x, y)
        if op == "min":
            return np.where(y < x, y, x), err
        if op == "max":
            return np.where(y > x, y, x), err
        raise NotImplementedError(op)
    raise TypeError(type(e).__name__)


def _pointwise(fn, err, *cols):
    """``fn`` per instant on Python floats; a ``ValueError`` or
    ``OverflowError`` marks that instant as an error."""
    args = [c.tolist() for c in cols]
    try:
        return np.array([fn(*xs) for xs in zip(*args)], dtype=float), err
    except (ValueError, OverflowError):
        pass
    out = np.empty(len(cols[0]))
    bad = np.zeros(len(out), dtype=bool)
    for i, xs in enumerate(zip(*args)):
        try:
            out[i] = fn(*xs)
        except (ValueError, OverflowError):
            out[i] = np.nan
            bad[i] = True
    return out, bad if err is None else err | bad


def _pointwise_env(fn, env: Mapping, m: int):
    """``fn(env_i)`` per instant, for quantified formulas (which have no
    column rule); any exception marks that instant as an error."""
    out = np.full(m, np.nan)
    bad = np.zeros(m, dtype=bool)
    for i in range(m):
        row = {k: (float(v[i]) if isinstance(v, np.ndarray) else v)
               for k, v in env.items()}
        try:
            out[i] = fn(row)
        except Exception:  # noqa: BLE001 -- re-raised at fault replay
            bad[i] = True
    return out, bad


def _formula_truth_cols(phi: Formula, env: Mapping, m: int) -> np.ndarray:
    """:meth:`Formula.eval` per instant as codes; ``and`` / ``or`` keep
    ``all`` / ``any``'s short-circuit order."""
    if isinstance(phi, TrueFormula):
        return np.full(m, _TRUE, dtype=np.int64)
    if isinstance(phi, FalseFormula):
        return np.full(m, _FALSE, dtype=np.int64)
    if isinstance(phi, Atom):
        v, err = _expr_cols(phi.term, env, m)
        codes = (v > 0.0 if phi.strict else v >= 0.0).astype(np.int64)
        if err is not None:
            codes[err] = _ERR
        return codes
    if isinstance(phi, (And, Or)):
        go_on = _TRUE if isinstance(phi, And) else _FALSE
        codes = _formula_truth_cols(phi.parts[0], env, m)
        for part in phi.parts[1:]:
            codes = np.where(codes == go_on, _formula_truth_cols(part, env, m), codes)
        return codes
    v, err = _pointwise_env(phi.eval, env, m)
    codes = (v != 0.0).astype(np.int64)
    codes[err] = _ERR
    return codes


def _formula_margin_cols(phi: Formula, env: Mapping, m: int):
    """:func:`repro.hybrid.formula_margin` per instant: ``(values, errors)``."""
    if isinstance(phi, TrueFormula):
        return np.full(m, math.inf), None
    if isinstance(phi, FalseFormula):
        return np.full(m, -math.inf), None
    if isinstance(phi, Atom):
        return _expr_cols(phi.term, env, m)
    if isinstance(phi, (And, Or)):
        is_and = isinstance(phi, And)
        v, err = _formula_margin_cols(phi.parts[0], env, m)
        for part in phi.parts[1:]:
            pv, perr = _formula_margin_cols(part, env, m)
            v = np.where(pv < v if is_and else pv > v, pv, v)
            if perr is not None:
                err = perr if err is None else err | perr
        return v, err
    return _pointwise_env(lambda row: formula_margin(phi, row), env, m)
