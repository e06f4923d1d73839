"""The compiled tape against the scalar judgment reference (same
judgments) and against sampled solutions (sound contraction), and wide
ICP frontiers against the one-box frontier (same verdicts and pavings).
Also the tape's call contracts: one judgment pass for several
thresholds, and one numpy error state per public call.
"""

import math
import operator
import random
import warnings

import numpy as np
import pytest

from repro.expr import (
    abs_,
    cos,
    exp,
    log,
    maximum,
    minimum,
    sigmoid,
    sin,
    sqrt,
    tanh,
    var,
    variables,
)
from repro.intervals import Box, BoxArray, Interval
from repro.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Exists,
    Forall,
    Or,
    equals_within,
    in_range,
)
from repro.solver import DeltaSolver, Status
from repro.solver.eval3 import _eval_formula_impl
from repro.solver.tape import CERTAIN_FALSE, ExprTape, compile_formula

x, y = variables("x y")


def box(**bounds) -> Box:
    return Box.from_bounds({k: tuple(v) for k, v in bounds.items()})


FORMULAS = [
    x >= 0,
    x > 0,
    And(x > 0, y < 0),
    Or(x < 0, y > 0),
    equals_within(x ** 2 + y ** 2, 1.0, 1e-3),
    in_range(x * y, 0.25, 0.5),
    equals_within(exp(x), 2.0, 1e-3),
    And(equals_within(sin(x), 0.0, 1e-3), x >= 1),
    in_range(abs_(x) / (1 + y ** 2), 0.1, 0.4),
    Forall("z", 0, 1, x * (1 - x) + 0.1 >= 0),
    Exists("z", 0, 1, And(equals_within(x - y, 0.0, 1e-2), x >= 0.5)),
]


def random_boxes(n: int, seed: int) -> list[Box]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        a, b = sorted(rng.uniform(-3, 3) for _ in range(2))
        c, d = sorted(rng.uniform(-3, 3) for _ in range(2))
        out.append(box(x=(a, b), y=(c, d)))
    return out


class TestTapeJudgment:
    @pytest.mark.parametrize("phi", FORMULAS, ids=[str(f)[:50] for f in FORMULAS])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_matches_scalar_judgment(self, phi, delta):
        boxes = random_boxes(150, seed=hash(str(phi)) % 2 ** 31)
        verdicts = compile_formula(phi).judge(BoxArray.from_boxes(boxes), delta)
        for i, b in enumerate(boxes):
            assert int(verdicts[i]) == _eval_formula_impl(phi, b, delta).value, (
                f"row {i}: {b}"
            )

    def test_empty_box_is_certainly_false(self):
        phi = x >= 0
        b = Box({"x": Interval(1.0, -1.0)})
        assert int(compile_formula(phi).judge(BoxArray.from_box(b))[0]) == -1


class TestTapeContraction:
    # The name predates the removal of the scalar contractor this test
    # also compared against; it keeps the name so its history stays
    # continuous, and now checks soundness only.
    @pytest.mark.parametrize(
        "phi", [f for f in FORMULAS if not isinstance(f, (Forall, Exists))],
        ids=lambda f: str(f)[:50],
    )
    def test_sound_and_at_least_as_tight_as_scalar(self, phi):
        rng = random.Random(7)
        boxes = random_boxes(60, seed=3)
        compiled = compile_formula(phi)
        contracted = compiled.fixpoint_contract(BoxArray.from_boxes(boxes), tol=1e-2)
        for i, b in enumerate(boxes):
            vec = contracted.row(i)
            # sound: satisfying sample points survive
            for _ in range(20):
                pt = {
                    "x": rng.uniform(b["x"].lo, b["x"].hi),
                    "y": rng.uniform(b["y"].lo, b["y"].hi),
                }
                try:
                    sat = phi.eval(pt)
                except (ArithmeticError, ZeroDivisionError, OverflowError):
                    continue
                if sat:
                    assert vec.contains_point(pt), f"row {i} lost {pt}"


class TestFrontierSolver:
    CASES = [
        (x >= 1, dict(x=(0, 2)), Status.DELTA_SAT),
        (x - 10 >= 0, dict(x=(0, 2)), Status.UNSAT),
        (
            And(equals_within(x ** 2 + y ** 2, 1.0, 1e-3), equals_within(x - y, 0.0, 1e-3)),
            dict(x=(-2, 2), y=(-2, 2)),
            Status.DELTA_SAT,
        ),
        (
            And(equals_within(x ** 2 + y ** 2, 1.0, 1e-4), equals_within(x + y, 10.0, 1e-4)),
            dict(x=(-3, 3), y=(-3, 3)),
            Status.UNSAT,
        ),
        (equals_within(exp(x), 2.0, 1e-4), dict(x=(0, 2)), Status.DELTA_SAT),
        (
            Or(And(in_range(x, 0.4, 0.6), x >= 10), in_range(x, 0.1, 0.2)),
            dict(x=(0, 1)),
            Status.DELTA_SAT,
        ),
        (
            Exists("y", 0, 1, And(equals_within(x - y, 0.0, 1e-3), x >= 0.5)),
            dict(x=(0, 1)),
            Status.DELTA_SAT,
        ),
    ]

    @pytest.mark.parametrize("phi,bounds,expected", CASES,
                             ids=[str(c[0])[:45] for c in CASES])
    @pytest.mark.parametrize("k", [2, 64, 512])
    def test_same_verdict_as_one_box_frontier(self, phi, bounds, expected, k):
        b = box(**bounds)
        one = DeltaSolver(delta=1e-3, frontier_size=1)._solve_impl(phi, b)
        batched = DeltaSolver(delta=1e-3, frontier_size=k)._solve_impl(phi, b)
        assert one.status is expected
        assert batched.status is expected
        if expected is Status.DELTA_SAT and not isinstance(phi, Exists):
            # the witness box certifies the weakened formula in full
            # (skipped for quantified formulas: Formula.eval only grid-
            # approximates quantifier bodies)
            for pt in batched.witness_box.corners():
                assert phi.delta_weaken(batched.delta + 1e-9).eval(pt)

    def test_budget_exhaustion_unknown(self):
        phi = equals_within(sin(x) * exp(x) + x ** 3, 0.3333, 1e-9)
        r = DeltaSolver(delta=1e-9, max_boxes=5, frontier_size=16)._solve_impl(
            phi, box(x=(-2, 2))
        )
        assert r.status is Status.UNKNOWN
        assert r.witness_box is not None

    def test_unbounded_variable_raises(self):
        with pytest.raises(ValueError, match="free variables"):
            DeltaSolver(frontier_size=8)._solve_impl(x + y >= 0, box(x=(0, 1)))

    def test_stats_populated(self):
        r = DeltaSolver(delta=1e-3, frontier_size=32)._solve_impl(
            equals_within(x ** 2, 2.0, 1e-3), box(x=(0, 2))
        )
        assert r.stats.boxes_processed >= 1
        assert r.stats.wall_time >= 0.0


class TestFrontierPaving:
    def test_partition_identical_to_one_box_frontier(self):
        phi = in_range(x, 0.25, 0.75)
        b = box(x=(0, 1))
        s = DeltaSolver(delta=1e-3, frontier_size=1).pave(phi, b, min_width=1e-3)
        v = DeltaSolver(delta=1e-3, frontier_size=64).pave(phi, b, min_width=1e-3)
        for part_s, part_v in zip(s, v):
            assert sorted(part_s, key=hash) == sorted(part_v, key=hash)

    def test_2d_disc_area(self):
        solver = DeltaSolver(delta=1e-2, frontier_size=128)
        phi = 1 - x ** 2 - y ** 2 >= 0
        sat, unsat, und = solver.pave(phi, box(x=(-1, 1), y=(-1, 1)), min_width=0.1)
        area = sum(bx.volume() for bx in sat)
        assert 2.2 < area <= 3.5


class TestBoxArray:
    def test_split_widest_matches_scalar_split(self):
        boxes = random_boxes(40, seed=11)
        ba = BoxArray.from_boxes(boxes)
        children = ba.split_widest()
        for i, b in enumerate(boxes):
            left, right = b.split()
            assert children.row(2 * i) == left
            assert children.row(2 * i + 1) == right

    def test_roundtrip(self):
        boxes = random_boxes(10, seed=2)
        assert BoxArray.from_boxes(boxes).to_boxes() == boxes

    def test_with_column_overrides(self):
        ba = BoxArray.from_boxes(random_boxes(5, seed=4))
        from repro.intervals import IntervalArray

        replaced = ba.with_column("x", IntervalArray.constant(1.0, 5))
        assert replaced.names == ba.names
        assert (replaced.column("x").lo == 1.0).all()
        appended = ba.with_column("z", IntervalArray.constant(2.0, 5))
        assert appended.names == ba.names + ("z",)

    def test_empty_mask(self):
        b1 = box(x=(0, 1), y=(0, 1))
        b2 = Box({"x": Interval(1.0, -1.0), "y": Interval(0.0, 1.0)})
        ba = BoxArray.from_boxes([b1, b2])
        assert list(ba.is_empty) == [False, True]


# ----------------------------------------------------------------------
# One judgment pass for several thresholds
# ----------------------------------------------------------------------

_UNARY_FNS = (sin, cos, exp, log, sqrt, abs_, tanh, sigmoid)
_BINARY_FNS = (
    operator.add, operator.sub, operator.mul, operator.truediv, minimum, maximum,
)


def _random_term(rng: random.Random, names, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return var(rng.choice(names))
    r = rng.random()
    if r < 0.3:
        return rng.choice(_UNARY_FNS)(_random_term(rng, names, depth - 1))
    if r < 0.4:
        return _random_term(rng, names, depth - 1) ** rng.choice((2, 3, -1, 0.5))
    if r < 0.55:
        return _random_term(rng, names, depth - 1) + round(rng.uniform(-2, 2), 2)
    op = rng.choice(_BINARY_FNS)
    return op(_random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))


def _random_formula(rng: random.Random, names, depth: int):
    """A seeded random formula over every compiled node kind."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        if r < 0.03:
            return TRUE
        if r < 0.06:
            return FALSE
        return Atom(_random_term(rng, names, 3), strict=rng.random() < 0.5)
    if r < 0.55:
        return And(*[_random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))])
    if r < 0.8:
        return Or(*[_random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))])
    quant = rng.choice((Exists, Forall))
    name = f"z{depth}"
    lo = round(rng.uniform(-1, 1), 2) if rng.random() < 0.8 else var(names[0])
    hi = round(rng.uniform(-1.2, 1.5), 2)  # below lo now and then: a vacuous domain
    return quant(name, lo, hi, _random_formula(rng, names + (name,), depth - 1))


def _random_batch(rng: random.Random, n: int) -> BoxArray:
    """Random boxes over x, y with point, empty and narrow rows mixed in."""
    lo, hi = np.empty((n, 2)), np.empty((n, 2))
    for i in range(n):
        for j in range(2):
            lo[i, j], hi[i, j] = sorted(rng.uniform(-3, 3) for _ in range(2))
        if i % 7 == 0:
            hi[i] = lo[i]  # point row
        elif i % 7 == 1:
            lo[i, i % 2], hi[i, i % 2] = 1.0, -1.0  # empty row
        elif i % 7 == 2:
            hi[i] = lo[i] + 1e-3
    return BoxArray(("x", "y"), lo, hi)


class TestOnePassJudgment:
    def test_thresholds_match_separate_judgments(self):
        rng = random.Random(20261019)
        kinds = set()
        for _ in range(400):
            phi = _random_formula(rng, ("x", "y"), 3)
            kinds.add(type(phi).__name__)
            compiled = compile_formula(phi)
            boxes = _random_batch(rng, 21)
            delta = rng.choice((1e-6, 0.05, 0.5, 2.0))
            both = compiled.judge(boxes, (0.0, delta))
            assert both.dtype == np.int8 and both.shape == (2, len(boxes))
            at_zero = compiled.judge(boxes, 0.0)
            assert at_zero.shape == (len(boxes),)
            assert np.array_equal(both[0], at_zero), str(phi)
            assert np.array_equal(both[1], compiled.judge(boxes, delta)), str(phi)
            # the epoch's old second pass: the live rows alone, at delta
            live = np.flatnonzero(~boxes.is_empty & (at_zero != CERTAIN_FALSE))
            if live.size:
                alone = compiled.judge(boxes.take(live), delta)
                assert np.array_equal(both[1][live], alone), str(phi)
            # neither the order nor the number of thresholds matters
            three = compiled.judge(boxes, (delta, 0.0, delta))
            assert np.array_equal(three, both[[1, 0, 1]]), str(phi)
        assert kinds >= {"Atom", "And", "Or", "Exists", "Forall"}

    def test_constant_formulas(self):
        boxes = _random_batch(random.Random(3), 8)
        for phi, verdict in ((TRUE, 1), (FALSE, -1)):
            out = compile_formula(phi).judge(boxes, (0.0, 0.5))
            assert out.shape == (2, 8) and (out == verdict).all()


# ----------------------------------------------------------------------
# The error-state contract of the tape's public entry points
# ----------------------------------------------------------------------

#: x * y meets 0 * inf, 1 / y divides by a y that touches zero, and
#: exp(x) overflows -- each a numpy warning under the default state.
_FP_TERM = x * y + 1 / y + exp(x)
_FP_ROWS = np.array([
    (0.0, 0.0, 1.0, math.inf),
    (-1.0, 1.0, 0.0, 1.0),
    (700.0, 800.0, -1.0, 1.0),
    (1.0, 2.0, 1.0, 2.0),
])


def _entry_points():
    tape = ExprTape(_FP_TERM)
    phi = Atom(_FP_TERM, strict=False)
    compiled = compile_formula(phi)
    return {
        "ExprTape.forward": tape.forward,
        "ExprTape.eval": tape.eval,
        "ExprTape.hc4": lambda b: tape.hc4(b, False),
        "CompiledFormula.judge": lambda b: compiled.judge(b, 0.1),
        "CompiledFormula.judge-thresholds": lambda b: compiled.judge(b, (0.0, 0.1)),
        "CompiledFormula.contract": compiled.contract,
        "CompiledFormula.fixpoint_contract": compiled.fixpoint_contract,
    }


ENTRY_POINTS = sorted(_entry_points())


class TestErrorState:
    @pytest.mark.parametrize("caller", [{}, {"all": "raise"}], ids=["default", "raise"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_no_warning_and_state_restored(self, entry, caller):
        boxes = BoxArray(("x", "y"), _FP_ROWS[:, [0, 2]], _FP_ROWS[:, [1, 3]])
        call = _entry_points()[entry]
        with np.errstate(**caller), warnings.catch_warnings():
            warnings.simplefilter("error")
            before = np.geterr()
            call(boxes)
            assert np.geterr() == before

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_state_restored_when_the_call_raises(self, entry):
        no_y = BoxArray(("x",), _FP_ROWS[:, [0]], _FP_ROWS[:, [1]])
        call = _entry_points()[entry]
        with np.errstate(all="raise"):
            before = np.geterr()
            with pytest.raises(KeyError):
                call(no_y)
            assert np.geterr() == before
