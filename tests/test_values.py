"""The value classes: equality and hashing by fields, immutability,
pickling (the process pool sends them between processes) and the checks
their constructors make."""

import pickle
from fractions import Fraction

import pytest

from fano3.basket import Basket
from fano3.certificates import CITED_LEMMA, MECHANICAL, CertStep, EliminationCertificate, Verdict
from fano3.eliminate import PipelineReport, Undetermined, candidate_for_case
from fano3.lb import LBContext
from fano3.rr import CrepantCurve, CurveConfig, ResidueConstraintSystem, UnknownTerm
from fano3.search import Candidate
from fano3.tables import TABLE_MAIN, TableRow
from fano3.wps import WeightedP3


def _killed(case_id):
    cert = EliminationCertificate(case_id)
    cert.mechanical("no assignment works", "contradiction", 84)
    return cert


# class -> (fields of one instance, one field changed, invalid fields);
# each invalid entry changes the first instance's fields
VALUES = {
    Basket: ({"points": ((5, 1),)}, {"points": ((5, 2),)}, [
        {"points": [(1, 1)]}, {"points": [(5, 3)]}, {"points": [(4, 2)]},
        {"points": [(24, 1)] * 3},
    ]),
    LBContext: ({"R": (3, 5)}, {"R": (3, 7)}, [{"R": (1,)}, {"R": (29,)}, {"R": (12, 20)}]),
    WeightedP3: ({"weights": (5, 6, 22, 33)}, {"weights": (1, 1, 1, 1)}, [
        {"weights": (1, 2, 3)}, {"weights": (0, 1, 1, 1)},
    ]),
    CertStep: (
        {"kind": MECHANICAL, "description": "d", "outcome": "narrowed", "domain_size": 6, "citation": None},
        {"domain_size": 7},
        [{"kind": "guesswork"}, {"citation": "hirzebruch-bound"},
         {"kind": CITED_LEMMA, "citation": "wishful-thinking"}],
    ),
    Verdict: ({"eliminated": True, "certificate": _killed(1)}, {"certificate": _killed(2)}, [
        {"certificate": EliminationCertificate(1)},
    ]),
    CrepantCurve: ({"j": 3, "degree_rXKC": 10, "generator_unit": 1}, {"generator_unit": 2}, [
        {"j": 1}, {"degree_rXKC": 0}, {"generator_unit": 3},
    ]),
    CurveConfig: ({"curves": (CrepantCurve(3, 10, 1),), "x_A1": 35}, {"x_A1": None}, [
        {"curves": (CrepantCurve(2, 10),)}, {"x_A1": -1},
    ]),
    ResidueConstraintSystem: (
        {"constants": (Fraction(1, 2),), "unknown_terms": (UnknownTerm(Fraction(1, 2), 2, "linear"),),
         "scale": 2, "tables": ((0, 1),)},
        {"scale": 4},
        [],
    ),
    EliminationCertificate: ({"case_id": 1}, {"case_id": 2}, []),
    Candidate: (candidate_for_case(1)._asdict(), {"q": 85}, []),
    TableRow: (TABLE_MAIN[0]._asdict(), {"j_a": 42}, []),
    UnknownTerm: ({"coeff": Fraction(1, 3), "modulus": 3}, {"shape": "linear"}, []),
    Undetermined: ({"reason": "open"}, {"reason": "closed"}, []),
    PipelineReport: (
        {"total": 1, "eliminated": 1, "survivors": [], "verdicts": [(1, Verdict(True, _killed(1)))],
         "mechanical_steps": 1, "cited_steps": 0},
        {"survivors": [1]},
        [],
    ),
}
MUTABLE = {EliminationCertificate}
UNHASHABLE = {EliminationCertificate, Verdict, PipelineReport}  # they hold lists


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    fields, changed, invalid = VALUES[cls]
    a, b = cls(**fields), cls(**fields)
    assert a == b and a is not b
    assert a != cls(**{**fields, **changed})
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    name = next(iter(fields))
    if cls not in MUTABLE:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is cls and restored == b
    derived = getattr(cls, "__slots__", ())  # derived slots too, e.g. Basket.r_x
    assert [getattr(restored, n) for n in derived] == [getattr(b, n) for n in derived]
    for bad in invalid:
        with pytest.raises(ValueError):
            cls(**{**fields, **bad})
