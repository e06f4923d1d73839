"""Delta-decision procedures (S4 in DESIGN.md).

A pure-Python delta-complete decision procedure for bounded L_RF
sentences (paper Section III, Theorem 1): breadth-wise ICP
branch-and-prune over batches of boxes (formulas compile once into flat
evaluation tapes judged/contracted with the vectorized interval
kernel), run by one epoch driver (:mod:`repro.solver.shard`) that is
in-process for one shard and otherwise paves disjoint sub-boxes in
parallel workers with work stealing and a deterministic merge, plus a
CEGIS exists-forall solver used for Lyapunov synthesis (Section IV-C).
"""

from .eval3 import Certainty
from .icp import DeltaSolver, Result, SolverStats, Status
from .exists_forall import EFResult, ExistsForallSolver
from .shard import ShardPlan, pave_sharded, solve_sharded
from .tape import CompiledFormula, ExprTape, compile_formula

__all__ = [
    "Certainty",
    "CompiledFormula",
    "ExprTape",
    "compile_formula",
    "DeltaSolver",
    "Result",
    "SolverStats",
    "Status",
    "EFResult",
    "ExistsForallSolver",
    "ShardPlan",
    "solve_sharded",
    "pave_sharded",
]
