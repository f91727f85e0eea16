import json

import pytest

from fano3.certificates import (
    AXIOMS,
    CITED_LEMMA,
    MECHANICAL,
    CertStep,
    EliminationCertificate,
    Verdict,
    certificate_from_dict,
)
from fano3.cli import main
from fano3.eliminate import candidate_for_case, eliminate_candidate


def test_step_validation():
    CertStep(MECHANICAL, "enumerated everything", "contradiction", 84)
    CertStep(CITED_LEMMA, "geometric input", "assumed", None, "half-point-parity")
    with pytest.raises(ValueError):
        CertStep("guesswork", "?", "?")
    with pytest.raises(ValueError):
        CertStep(CITED_LEMMA, "no such axiom", "assumed", None, "wishful-thinking")
    with pytest.raises(ValueError):
        CertStep(MECHANICAL, "mechanical with citation", "ok", None, "hirzebruch-bound")


def test_verdict_requires_contradiction():
    cert = EliminationCertificate(1)
    cert.mechanical("looked around", "narrowed")
    with pytest.raises(ValueError):
        Verdict(True, cert)
    Verdict(False, cert)
    cert.mechanical("no assignment works", "contradiction", 84)
    Verdict(True, cert)


def test_kind_counts_split_mechanical_and_cited():
    cert = EliminationCertificate(2)
    assert cert.kind_counts() == {MECHANICAL: 0, CITED_LEMMA: 0}
    cert.mechanical("a", "narrowed")
    assert cert.kind_counts() == {MECHANICAL: 1, CITED_LEMMA: 0}
    cert.cite("hirzebruch-bound", "b")
    assert cert.kind_counts() == {MECHANICAL: 1, CITED_LEMMA: 1}


def test_json_round_trip(capsys):
    """The CLI's JSON envelope loads back into the engine's certificate;
    case 3 is a C+ case, so cited steps ride along with mechanical ones."""
    assert main(["eliminate", "--case", "3", "--format", "json"]) == 0
    (data,) = json.loads(capsys.readouterr().out)["payload"]
    back = certificate_from_dict(data)
    assert back.case_id == 3
    assert back.kind_counts()[CITED_LEMMA] == 4
    assert back.steps == eliminate_candidate(3, candidate_for_case(3)).certificate.steps


def test_axioms_have_descriptions():
    for name, description in AXIOMS.items():
        assert name == name.strip().lower()
        assert len(description) > 20
