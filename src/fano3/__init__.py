"""Exact-arithmetic engine bounding the Fano index of canonical threefolds.

The package enumerates every candidate with index above the threshold,
then eliminates all of them with replayable certificates: orbifold
Riemann-Roch residue systems, degree-budget bounds, and foliation index
arguments, all over exact rationals.
"""

from importlib import import_module

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

#: each exported name -> the submodule that defines it. ``import fano3``
#: loads none of them, so a process compiles only the engine it uses
_HOMES = {
    "Basket": "basket",
    "Candidate": "search",
    "run_search": "search",
    "EliminationCertificate": "certificates",
    "Verdict": "certificates",
    "exists_integral_solution": "eliminate",
    "eliminate_candidate": "eliminate",
    "run_full_pipeline": "eliminate",
}


def __getattr__(name):
    # PEP 562: an exported name imports its home module on first use and is
    # then a plain global. Anything else must raise AttributeError, which
    # hasattr, ``import *`` and ``from fano3 import <submodule>`` rely on
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value
