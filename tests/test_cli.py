import csv
import hashlib
import io
import json
import re
from argparse import _SubParsersAction
from pathlib import Path

import pytest

from fano3.cli import build_parser, main

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
    assert main(["wps", "--weights", "5,6,22,33", "--smax", "0"]) == 2
    assert main(["wps", "--weights", "5,6,22,33", "--smax", "-3"]) == 2
    assert main(["lb", "--R", "0,3", "--N", "3"]) == 2
    assert main(["lb", "--R", "29", "--N", "3"]) == 2


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


def test_readme_cli_block_lists_every_command():
    # the fenced sh block under "## CLI" names each subcommand of the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("fano3 ")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, _SubParsersAction)]
    assert documented == set(sub.choices)


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


#: sha256 of the contract bytes, by command line and format
CONTRACT_SHA256 = {
    ("eliminate", "--all"): {
        "json": "17e728f8436c840e3ffd13f30cbe9a96e7728b2328368502773cc0b8a30f20d8",
        "csv": "29c9d889fd678c3b82d2a7c07a56c61f9f7a916bc81dcff780d19b15953210eb",
        "md": "eb956d300d95ce281c101e2a20d6142a2f013f59ada6903dc33214643a4f35c9",
    },
    ("search", "--qmin", "66", "--mode", "equal"): {
        "json": "c422bc06a0da5ffdd345f0544f7cc276b1230a333729fed623e9a69ce7ba3596",
        "csv": "546dd9b942a56c8df27ad4c887501d69ed457d471f647fed1a9f8a688a2b47ac",
        "md": "b28ee3825b2e9494e1747968bb8b7df258fe43aa4d13c8c1a3058e1c02473670",
    },
    ("search", "--qmin", "66"): {
        "json": "9ab59867f73a1ea792a9f5d4c528122c08966344eb96090f1fc9af89f10f2d20",
        "csv": "911acb93df0d8966fe6d6bc44c9edd5e15e246a6490a0f75179e299e155b9e6d",
        "md": "053022632d78800a1b78bf96678aaa6fe17c3669d15b406b2aecd17532c7eb4f",
    },
}


def test_contract_bytes(monkeypatch, capsys, pipeline_report, candidates_greater, candidates_equal):
    """Every format of `eliminate --all` and of both q = 66 searches, on the
    session's searches and pipeline, so no search runs again."""
    searches = {"greater": candidates_greater, "equal": candidates_equal}

    def session_search(q_min, mode, workers):
        assert (q_min, workers) == (66, 1)
        return searches[mode]

    monkeypatch.setattr("fano3.cli.run_search", session_search)
    monkeypatch.setattr("fano3.cli.run_full_pipeline", lambda workers: pipeline_report)
    for argv, digests in CONTRACT_SHA256.items():
        for fmt, digest in digests.items():
            code, text, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0, (argv, fmt)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (argv, fmt)


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    """A KeyError inside a command is an engine fault, not bad input: it
    propagates instead of exiting 2 as a usage error."""

    def broken_lookup(args):
        raise KeyError("missing table entry")

    monkeypatch.setattr("fano3.cli.cmd_lb", broken_lookup)
    with pytest.raises(KeyError):
        main(["lb", "--R", "2,3", "--N", "3"])
