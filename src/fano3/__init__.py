"""Exact-arithmetic engine bounding the Fano index of canonical threefolds.

The package enumerates every candidate with index above the threshold,
then eliminates all of them with replayable certificates: orbifold
Riemann-Roch residue systems, degree-budget bounds, and foliation index
arguments, all over exact rationals.
"""

from .basket import Basket
from .certificates import EliminationCertificate, Verdict
from .eliminate import (
    eliminate_candidate,
    exists_integral_solution,
    run_full_pipeline,
)
from .search import Candidate, run_search

__version__ = "0.1.0"

__all__ = [
    "Basket",
    "Candidate",
    "run_search",
    "EliminationCertificate",
    "Verdict",
    "exists_integral_solution",
    "eliminate_candidate",
    "run_full_pipeline",
    "__version__",
]
