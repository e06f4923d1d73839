"""First-order formulas of ``L_RF`` (paper Definitions 1-4).

Atomic formulas are ``t > 0`` and ``t >= 0`` where ``t`` is an
expression term; formulas are closed under conjunction, disjunction and
bounded quantification (Definition 2).  Negation is the *inductively
defined* operation of the paper: it swaps strict/weak atoms with negated
operands, swaps conjunction/disjunction, and swaps quantifiers -- so
formulas are effectively kept in negation normal form.

Delta-weakening (Definition 4) replaces ``t > 0`` with ``t > -delta``
and ``t >= 0`` with ``t >= -delta``; delta-strengthening is the dual and
is what an unsat answer for the weakened complement certifies.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.expr import Const, Expr, ExprLike, as_expr

__all__ = [
    "Formula",
    "Atom",
    "TrueFormula",
    "FalseFormula",
    "And",
    "Or",
    "Not",
    "Implies",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
]


class Formula:
    """Base class of quantifier-free and bounded-quantifier formulas."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        """Free variables of the formula."""
        raise NotImplementedError

    def negate(self) -> "Formula":
        """The paper's inductive negation (stays in NNF)."""
        raise NotImplementedError

    def delta_weaken(self, delta: float) -> "Formula":
        """``phi^delta`` of Definition 4: relax every atom by ``delta``."""
        raise NotImplementedError

    def delta_strengthen(self, delta: float) -> "Formula":
        """Tighten every atom by ``delta`` (dual of weakening)."""
        return self.delta_weaken(-delta)

    def eval(self, env: Mapping[str, float]) -> bool:
        """Ground truth value under a full real assignment."""
        raise NotImplementedError

    def subs(self, env: Mapping[str, ExprLike]) -> "Formula":
        """Substitute expressions for free variables."""
        raise NotImplementedError

    def atoms(self) -> list["Atom"]:
        """All atomic subformulas, in syntactic order."""
        raise NotImplementedError

    # -- connectives as operators --------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return self.negate()

    def implies(self, other: "Formula") -> "Formula":
        """``self -> other`` (see :func:`Implies`)."""
        return Implies(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        raise NotImplementedError


class TrueFormula(Formula):
    """The constant true."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        """No free variables."""
        return frozenset()

    def negate(self) -> Formula:
        """``false``."""
        return FALSE

    def delta_weaken(self, delta: float) -> Formula:
        """Itself: ``true`` has no atom to relax."""
        return self

    def eval(self, env: Mapping[str, float]) -> bool:
        """Always true."""
        return True

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """Itself: ``true`` has no variable to replace."""
        return self

    def atoms(self) -> list["Atom"]:
        """No atoms."""
        return []

    def __str__(self) -> str:
        return "true"

    def _key(self) -> tuple:
        return ("true",)


class FalseFormula(Formula):
    """The constant false."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        """No free variables."""
        return frozenset()

    def negate(self) -> Formula:
        """``true``."""
        return TRUE

    def delta_weaken(self, delta: float) -> Formula:
        """Itself: ``false`` has no atom to relax."""
        return self

    def eval(self, env: Mapping[str, float]) -> bool:
        """Always false."""
        return False

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """Itself: ``false`` has no variable to replace."""
        return self

    def atoms(self) -> list["Atom"]:
        """No atoms."""
        return []

    def __str__(self) -> str:
        return "false"

    def _key(self) -> tuple:
        return ("false",)


TRUE = TrueFormula()
FALSE = FalseFormula()


class Atom(Formula):
    """Atomic formula ``term > 0`` (strict) or ``term >= 0`` (weak)."""

    __slots__ = ("term", "strict")

    def __init__(self, term: ExprLike, strict: bool):
        self.term = as_expr(term)
        self.strict = bool(strict)

    def variables(self) -> frozenset[str]:
        """The variables of the term."""
        return self.term.variables()

    def negate(self) -> Formula:
        """``-t >= 0`` for ``t > 0`` and ``-t > 0`` for ``t >= 0``."""
        # not(t > 0) == -t >= 0 ; not(t >= 0) == -t > 0   (paper Sec. III-A)
        return Atom(-self.term, strict=not self.strict)

    def negate_operand(self) -> "Atom":
        """Atom with operand negated but the same relation (-t R 0)."""
        return Atom(-self.term, strict=self.strict)

    def delta_weaken(self, delta: float) -> "Atom":
        """``t + delta`` under the same relation (itself at ``delta = 0``)."""
        if delta == 0.0:
            return self
        return Atom(self.term + Const(float(delta)), strict=self.strict)

    def eval(self, env: Mapping[str, float]) -> bool:
        """The relation of the term's value to 0."""
        v = self.term.eval(env)
        return v > 0.0 if self.strict else v >= 0.0

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """The atom over the substituted term."""
        return Atom(self.term.subs(env), strict=self.strict)

    def atoms(self) -> list["Atom"]:
        """Itself."""
        return [self]

    def __str__(self) -> str:
        rel = ">" if self.strict else ">="
        return f"({self.term} {rel} 0)"

    def _key(self) -> tuple:
        return ("atom", self.term._key(), self.strict)


def _flatten(cls, parts: Iterable[Formula]) -> list[Formula]:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)
        else:
            out.append(p)
    return out


class And(Formula):
    """N-ary conjunction (flattened, constant-absorbed)."""

    __slots__ = ("parts",)

    def __new__(cls, *parts: Formula):
        flat = _flatten(And, parts)
        flat = [p for p in flat if not isinstance(p, TrueFormula)]
        if any(isinstance(p, FalseFormula) for p in flat):
            return FALSE
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        obj = object.__new__(cls)
        obj.parts = tuple(flat)
        return obj

    def variables(self) -> frozenset[str]:
        """Union of the conjuncts' free variables."""
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.variables()
        return out

    def negate(self) -> Formula:
        """Disjunction of the negated conjuncts (De Morgan)."""
        return Or(*[p.negate() for p in self.parts])

    def delta_weaken(self, delta: float) -> Formula:
        """Conjunction of the weakened conjuncts."""
        return And(*[p.delta_weaken(delta) for p in self.parts])

    def eval(self, env: Mapping[str, float]) -> bool:
        """True when every conjunct holds."""
        return all(p.eval(env) for p in self.parts)

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """Conjunction of the substituted conjuncts."""
        return And(*[p.subs(env) for p in self.parts])

    def atoms(self) -> list[Atom]:
        """The conjuncts' atoms, in order."""
        return [a for p in self.parts for a in p.atoms()]

    def __reduce__(self):
        # the absorbing __new__ takes the parts positionally, so the
        # default slot-state pickling (which calls __new__ with no
        # arguments and gets TRUE back) cannot reconstruct conjunctions;
        # rebuilding from the flattened parts round-trips exactly
        return (And, tuple(self.parts))

    def __str__(self) -> str:
        return "(" + " /\\ ".join(str(p) for p in self.parts) + ")"

    def _key(self) -> tuple:
        return ("and",) + tuple(p._key() for p in self.parts)


class Or(Formula):
    """N-ary disjunction (flattened, constant-absorbed)."""

    __slots__ = ("parts",)

    def __new__(cls, *parts: Formula):
        flat = _flatten(Or, parts)
        flat = [p for p in flat if not isinstance(p, FalseFormula)]
        if any(isinstance(p, TrueFormula) for p in flat):
            return TRUE
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        obj = object.__new__(cls)
        obj.parts = tuple(flat)
        return obj

    def variables(self) -> frozenset[str]:
        """Union of the disjuncts' free variables."""
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.variables()
        return out

    def negate(self) -> Formula:
        """Conjunction of the negated disjuncts (De Morgan)."""
        return And(*[p.negate() for p in self.parts])

    def delta_weaken(self, delta: float) -> Formula:
        """Disjunction of the weakened disjuncts."""
        return Or(*[p.delta_weaken(delta) for p in self.parts])

    def eval(self, env: Mapping[str, float]) -> bool:
        """True when some disjunct holds."""
        return any(p.eval(env) for p in self.parts)

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """Disjunction of the substituted disjuncts."""
        return Or(*[p.subs(env) for p in self.parts])

    def atoms(self) -> list[Atom]:
        """The disjuncts' atoms, in order."""
        return [a for p in self.parts for a in p.atoms()]

    def __reduce__(self):
        # see And.__reduce__: the absorbing __new__ breaks default pickling
        return (Or, tuple(self.parts))

    def __str__(self) -> str:
        return "(" + " \\/ ".join(str(p) for p in self.parts) + ")"

    def _key(self) -> tuple:
        return ("or",) + tuple(p._key() for p in self.parts)


def Not(phi: Formula) -> Formula:
    """Negation as the paper's inductive rewrite (returns NNF directly)."""
    return phi.negate()


def Implies(a: Formula, b: Formula) -> Formula:
    """``a -> b`` defined as ``not a \\/ b`` (paper Section III-A)."""
    return Or(a.negate(), b)


class _Quantifier(Formula):
    """Common machinery of bounded Exists/Forall (Definition 2)."""

    __slots__ = ("name", "lo", "hi", "body")

    def __init__(self, name: str, lo: ExprLike, hi: ExprLike, body: Formula):
        self.name = name
        self.lo = as_expr(lo)
        self.hi = as_expr(hi)
        self.body = body
        bound_vars = self.lo.variables() | self.hi.variables()
        if name in bound_vars:
            raise ValueError(
                f"bounds of quantified variable {name!r} must not mention it"
            )

    def variables(self) -> frozenset[str]:
        """The body's free variables except the bound one, plus the bounds'."""
        return (self.body.variables() - {self.name}) | self.lo.variables() | self.hi.variables()

    def atoms(self) -> list[Atom]:
        """The body's atoms."""
        return self.body.atoms()

    def _grid(self, env: Mapping[str, float], n: int = 64) -> list[float]:
        lo = self.lo.eval(env)
        hi = self.hi.eval(env)
        if lo > hi:
            return []
        if lo == hi:
            return [lo]
        step = (hi - lo) / (n - 1)
        return [lo + i * step for i in range(n)]


class Exists(_Quantifier):
    """Bounded existential ``exists x in [lo, hi]. body``."""

    def negate(self) -> Formula:
        """``forall`` over the same domain with the body negated."""
        return Forall(self.name, self.lo, self.hi, self.body.negate())

    def delta_weaken(self, delta: float) -> Formula:
        """The same quantifier over the weakened body."""
        return Exists(self.name, self.lo, self.hi, self.body.delta_weaken(delta))

    def eval(self, env: Mapping[str, float]) -> bool:
        """True when the body holds at some point of a 64-point grid
        over the domain (an approximation for testing; the solvers
        judge quantifiers over interval domains)."""
        # Grid check: sound only as an approximation; the solver handles
        # quantifiers rigorously, this is for testing/ground-truthing.
        return any(
            self.body.eval({**env, self.name: v}) for v in self._grid(env)
        )

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """Substitute into the bounds and body; the bound variable
        itself is never replaced."""
        env2 = {k: v for k, v in env.items() if k != self.name}
        return Exists(self.name, self.lo.subs(env2), self.hi.subs(env2), self.body.subs(env2))

    def __str__(self) -> str:
        return f"(exists {self.name} in [{self.lo}, {self.hi}]. {self.body})"

    def _key(self) -> tuple:
        return ("exists", self.name, self.lo._key(), self.hi._key(), self.body._key())


class Forall(_Quantifier):
    """Bounded universal ``forall x in [lo, hi]. body``."""

    def negate(self) -> Formula:
        """``exists`` over the same domain with the body negated."""
        return Exists(self.name, self.lo, self.hi, self.body.negate())

    def delta_weaken(self, delta: float) -> Formula:
        """The same quantifier over the weakened body."""
        return Forall(self.name, self.lo, self.hi, self.body.delta_weaken(delta))

    def eval(self, env: Mapping[str, float]) -> bool:
        """True when the body holds at every point of a 64-point grid
        over the domain (an approximation for testing; the solvers
        judge quantifiers over interval domains)."""
        return all(
            self.body.eval({**env, self.name: v}) for v in self._grid(env)
        )

    def subs(self, env: Mapping[str, ExprLike]) -> Formula:
        """Substitute into the bounds and body; the bound variable
        itself is never replaced."""
        env2 = {k: v for k, v in env.items() if k != self.name}
        return Forall(self.name, self.lo.subs(env2), self.hi.subs(env2), self.body.subs(env2))

    def __str__(self) -> str:
        return f"(forall {self.name} in [{self.lo}, {self.hi}]. {self.body})"

    def _key(self) -> tuple:
        return ("forall", self.name, self.lo._key(), self.hi._key(), self.body._key())
