"""Replayable elimination certificates.

A certificate is an ordered list of steps that together rule out one
candidate.  Each step is either *mechanical* -- an exhaustive arithmetic
check whose domain size is recorded -- or *cited-lemma* -- a geometric
input taken on faith, identified by a named axiom.  The distinction is the
honest boundary of what a computer check establishes here.
"""

from __future__ import annotations

from .arith import Frozen

__all__ = [
    "MECHANICAL",
    "CITED_LEMMA",
    "CertStep",
    "EliminationCertificate",
    "Verdict",
    "certificate_to_dict",
    "certificate_from_dict",
]

MECHANICAL = "mechanical"
CITED_LEMMA = "cited-lemma"

#: Named geometric axioms a cited-lemma step may reference.  Keeping them in
#: one table makes the pipeline report auditable: a run is "fully
#: mechanical" exactly when none of these names appear.
AXIOMS = {
    "crepant-point-classification": (
        "every crepant point has Gorenstein index 1 or 2; in the relevant "
        "baskets the index-2 case is the four-half-points configuration"
    ),
    "weil-pullback-additivity": (
        "over an open set where the relevant multiple of the polarization "
        "is Cartier, round-down pullbacks add up, so the defect divisor is "
        "exceptional over finitely many crepant points"
    ),
    "half-point-parity": (
        "an exceptional divisor over a Gorenstein-index-2 crepant point has "
        "local indices of equal parity at the four half-points"
    ),
    "rank2-foliation-exists": (
        "when the slope inequality fails the 16/5 bound, the tangent sheaf "
        "has a rank-2 piece of its Harder-Narasimhan filtration which is an "
        "algebraically integrable foliation with positive minimal slope"
    ),
    "rational-connectedness": (
        "the candidate variety is rationally connected, so the leaf family "
        "is parameterized by the projective line"
    ),
    "leaf-family-movability": (
        "the pushed-forward general leaf moves in a positive-dimensional "
        "linear system, and distinct fibers share no component"
    ),
    "hirzebruch-bound": (
        "a general leaf fiber maps birationally to a Hirzebruch surface "
        "F_n with n in {1,2}, whose anticanonical square is 8"
    ),
}


class CertStep(Frozen):
    """One step of an elimination argument.

    ``outcome`` is a short machine-friendly tag (e.g. "contradiction",
    "narrowed", "determined"); ``domain_size`` is the number of assignments
    exhausted by a mechanical step; ``citation`` names the axiom backing a
    cited-lemma step.
    """

    __slots__ = _fields = ("kind", "description", "outcome", "domain_size", "citation")

    def __init__(self, kind, description, outcome, domain_size=None, citation=None):
        if kind not in (MECHANICAL, CITED_LEMMA):
            raise ValueError(f"unknown step kind {kind!r}")
        if kind == CITED_LEMMA:
            if citation not in AXIOMS:
                raise ValueError(f"cited-lemma step needs a known axiom, got {citation!r}")
        elif citation is not None:
            raise ValueError("mechanical steps carry no citation")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "citation", citation)


class EliminationCertificate:
    def __init__(self, case_id):
        self.case_id = case_id
        self.steps = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.case_id, self.steps) == (other.case_id, other.steps)

    def __repr__(self):
        return f"EliminationCertificate(case_id={self.case_id!r}, steps={self.steps!r})"

    def add(self, kind, description, outcome, domain_size=None, citation=None):
        self.steps.append(CertStep(kind, description, outcome, domain_size, citation))

    def mechanical(self, description, outcome, domain_size=None):
        self.add(MECHANICAL, description, outcome, domain_size)

    def cite(self, citation, description):
        self.add(CITED_LEMMA, description, "assumed", None, citation)

    @property
    def has_contradiction(self) -> bool:
        return any(s.outcome == "contradiction" for s in self.steps)

    def kind_counts(self):
        counts = {MECHANICAL: 0, CITED_LEMMA: 0}
        for s in self.steps:
            counts[s.kind] += 1
        return counts


class Verdict(Frozen):
    __slots__ = _fields = ("eliminated", "certificate")

    def __init__(self, eliminated, certificate):
        if eliminated and not certificate.has_contradiction:
            raise ValueError("an elimination requires a contradiction step")
        object.__setattr__(self, "eliminated", eliminated)
        object.__setattr__(self, "certificate", certificate)


def certificate_to_dict(cert: EliminationCertificate) -> dict:
    return {
        "case_id": cert.case_id,
        "steps": [
            {
                "kind": s.kind,
                "description": s.description,
                "outcome": s.outcome,
                "domain_size": s.domain_size,
                "citation": s.citation,
            }
            for s in cert.steps
        ],
    }


def certificate_from_dict(data: dict) -> EliminationCertificate:
    cert = EliminationCertificate(int(data["case_id"]))
    for s in data["steps"]:
        cert.add(
            s["kind"],
            s["description"],
            s["outcome"],
            s.get("domain_size"),
            s.get("citation"),
        )
    return cert

