import csv
import hashlib
import io
import json

import pytest

from fano3.cli import main

from conftest import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_equal_json_and_csv_agree(capsys):
    code, text, _ = run_cli(capsys, "search", "--qmin", "66", "--mode", "equal", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["schema_version"] == "1"
    records = doc["payload"]
    assert len(records) == 7

    code, text, _ = run_cli(capsys, "search", "--qmin", "66", "--mode", "equal", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 7
    for rec, rowdict in zip(records, rows):
        assert rowdict["q"] == str(rec["q"])
        assert rowdict["rXc13"] == str(rec["rXc13"])
        num, den = rowdict["nabla"].split("/")
        assert int(num) == rec["nabla"]["num"] and int(den) == rec["nabla"]["den"]
        assert rowdict["nabla_display"] == rec["nabla_display"]
        basket = [
            [int(a), int(b)]
            for a, b in (pt.strip("()").split(",") for pt in rowdict["basket"].split(";"))
        ]
        assert basket == rec["basket"]


def test_search_md_layout(capsys):
    code, text, _ = run_cli(capsys, "search", "--mode", "equal", "--format", "md")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("| No |")
    assert len(lines) == 2 + 7


def test_search_rational_serialization(capsys):
    code, text, _ = run_cli(capsys, "search", "--mode", "equal", "--format", "json")
    doc = json.loads(text)
    for rec in doc["payload"]:
        nab = rec["nabla"]
        assert set(nab) == {"num", "den", "display"}
        assert nab["den"] > 0


def test_eliminate_single_case(capsys):
    code, text, _ = run_cli(capsys, "eliminate", "--case", "1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["summary"]["eliminated"] is True
    steps = doc["payload"][0]["steps"]
    assert steps[-1]["outcome"] == "contradiction"
    assert steps[-1]["domain_size"] == 84


def test_eliminate_unknown_case(capsys):
    code, _, err = run_cli(capsys, "eliminate", "--case", "99")
    assert code == 2
    assert "99" in err


def test_python_m_fano3():
    done = run_python("-m", "fano3", "lb", "--R", "2,4,4,7", "--N", "3")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"] == [[3, 14]]


def test_bad_flags_exit_2(capsys):
    assert main(["search", "--mode", "diagonal"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["h0", "--s", "0..70"]) == 2
    assert main(["wps", "--weights", "1,2", "--smax", "5"]) == 2
    assert main(["duval", "--type", "Z9"]) == 2
    assert main(["lb", "--R", "0,3", "--N", "3"]) == 2


def test_h0_values(capsys):
    code, text, _ = run_cli(capsys, "h0", "--s", "30..33", "--format", "csv")
    assert code == 0
    rows = dict(
        (int(k), int(v)) for k, v in csv.reader(io.StringIO(text)) if k != "key"
    )
    assert rows == {30: 2, 31: 1, 32: 2, 33: 3}


def test_wps_matches_h0(capsys):
    code, text, _ = run_cli(capsys, "wps", "--weights", "5,6,22,33", "--smax", "65", "--format", "json")
    assert code == 0
    wps_pairs = json.loads(text)["payload"]
    code, text, _ = run_cli(capsys, "h0", "--s", "1..65", "--format", "json")
    h0_pairs = json.loads(text)["payload"]
    assert wps_pairs == h0_pairs


def test_lb_command(capsys):
    code, text, _ = run_cli(capsys, "lb", "--R", "2,4,4,7", "--N", "3", "--format", "json")
    assert code == 0
    assert json.loads(text)["payload"] == [[3, 14]]


def test_duval_command(capsys):
    code, text, _ = run_cli(capsys, "duval", "--type", "D5", "--format", "json")
    assert code == 0
    pairs = dict((k, v) for k, v in json.loads(text)["payload"])
    assert (pairs["e"], pairs["e'"], pairs["g"], pairs["j"]) == (6, 5, 12, 4)
    assert pairs["class_group"] == "4"


def test_config_file_and_out(tmp_path, capsys):
    config = tmp_path / "engine.cfg"
    config.write_text("qmin = 66\njobs = 1\n# comment\n")
    target = tmp_path / "out.json"
    code, text, _ = run_cli(
        capsys, "search", "--mode", "equal", "--config", str(config),
        "--out", str(target), "--format", "json",
    )
    assert code == 0 and text == ""
    assert len(json.loads(target.read_text())["payload"]) == 7

    bad = tmp_path / "bad.cfg"
    bad.write_text("verbosity = 11\n")
    code, _, err = run_cli(capsys, "search", "--mode", "equal", "--config", str(bad))
    assert code == 2


def test_search_bytes_under_optimize():
    """`python -O` prints the contract bytes of the q = 66 search."""
    done = run_python(
        "-O", "-m", "fano3", "search", "--qmin", "66", "--mode", "equal", "--format", "json"
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "c422bc06a0da5ffdd345f0544f7cc276b1230a333729fed623e9a69ce7ba3596"
    )
