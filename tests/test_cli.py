import csv
import hashlib
import io
import json
import re
from argparse import _SubParsersAction
from pathlib import Path

import pytest

from fano3.cli import build_parser, main
from fano3.eliminate import candidate_for_case

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
    assert main(["search", "--config", "x"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["search", "--qmin", "5"]) == 2
    assert capsys.readouterr() == ("", "error: q_min must be at least 6\n")
    # only --all reads --jobs
    assert main(["eliminate", "--case", "3", "--jobs", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: --jobs applies to --all only\n")
    assert main(["h0", "--s", "0..70"]) == 2
    assert main(["wps", "--weights", "1,2", "--smax", "5"]) == 2
    assert main(["wps", "--weights", "5,6,22,33", "--smax", "0"]) == 2
    assert main(["wps", "--weights", "5,6,22,33", "--smax", "-3"]) == 2
    assert main(["lb", "--R", "0,3", "--N", "3"]) == 2
    assert main(["lb", "--R", "29", "--N", "3"]) == 2
    # inadmissible: sum(r - 1/r) >= 24
    assert main(["lb", "--R", "24,24,24", "--N", "4"]) == 2
    assert main(["lb", "--R", "12,20", "--N", "4"]) == 2


def test_h0_values(capsys):
    code, text, _ = run_cli(capsys, "h0", "--s", "30..33", "--format", "csv")
    assert code == 0
    rows = dict(
        (int(k), int(v)) for k, v in csv.reader(io.StringIO(text)) if k != "key"
    )
    assert rows == {30: 2, 31: 1, 32: 2, 33: 3}
    # a single degree is the range s..s
    assert run_cli(capsys, "h0", "--s", "5", "--format", "csv") == (0, "key,value\n5,1\n", "")


def test_wps_matches_h0(capsys):
    code, text, _ = run_cli(capsys, "wps", "--weights", "5,6,22,33", "--smax", "65", "--format", "json")
    assert code == 0
    wps_pairs = json.loads(text)["payload"]
    code, text, _ = run_cli(capsys, "h0", "--s", "1..65", "--format", "json")
    h0_pairs = json.loads(text)["payload"]
    assert wps_pairs == h0_pairs


def test_lb_command(tmp_path, capsys):
    code, text, _ = run_cli(capsys, "lb", "--R", "2,4,4,7", "--N", "3", "--format", "json")
    assert code == 0
    assert json.loads(text)["payload"] == [[3, 14]]
    # --out writes the same bytes to the file and nothing to stdout
    target = tmp_path / "out.json"
    assert run_cli(capsys, "lb", "--R", "2,4,4,7", "--N", "3", "--out", str(target)) == (0, "", "")
    assert target.read_text() == text


def test_readme_cli_block_lists_every_command():
    # the fenced sh block under "## CLI" names each subcommand of the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("fano3 ")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, _SubParsersAction)]
    assert documented == set(sub.choices)


@pytest.mark.parametrize(
    "R, N, line",
    [
        ("0,3", "3", "error: malformed R: basket indices must lie in 2..24, got R=(0, 3)"),
        ("24,24,24", "4", "error: malformed R: R=(24, 24, 24) is not admissible (budget 575/8 >= 24)"),
        ("5", "1", "error: N must be at least 2"),
        ("5", "0", "error: N must be at least 2"),
    ],
    ids=("indices", "budget", "N=1", "N=0"),
)
def test_lb_error_lines(capsys, R, N, line):
    assert run_cli(capsys, "lb", "--R", R, "--N", N) == (2, "", line + "\n")


@pytest.mark.parametrize("command", (["search"], ["eliminate", "--all"]), ids=("search", "eliminate"))
@pytest.mark.parametrize("jobs", ("0", "-3"))
def test_non_positive_jobs_exit_2(capsys, command, jobs):
    line = f"error: --jobs must be at least 1, got {jobs}\n"
    assert run_cli(capsys, *command, "--jobs", jobs) == (2, "", line)


def test_unreadable_config_and_unwritable_out_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, text, err = run_cli(capsys, "lb", "--R", "2,3", "--N", "3", "--out", str(missing / "x.json"))
    assert (code, text) == (2, "")
    assert err.startswith("error: cannot write --out") and err.count("\n") == 1


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
        "json": "243ba2de2eda24c0ce2e31fd4bf2962b703b0673f25916a175bca8070afceb9b",
        "csv": "c017331d750f4de884645e8984f3e479fe57138bceec6da6c37e9075e2138fe0",
        "md": "0e43efc93d5fd8e510025b937e0b8b43303b0e5260b7ac70db8e1656d0e10fda",
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


#: sha256 of the value tables and of one certificate per elimination route
#: (Group A, Group B, C-, C+), by command line and format
OUTPUT_SHA256 = {
    ("h0", "--s", "1..65"): {
        "json": "b962c2cd80ec2d3037dad35a5a486a11483c1fdda1f22c60ef71112010cd0013",
        "csv": "768dfe77f55ee9c3bdb965fb05021f9bc63d8fb171266a4c7346b4e369658f00",
        "md": "b05184d2c9c44adbb4a20cf601ab819fb35b1109c02d9d5dd4cf79c8077d8517",
    },
    ("wps", "--weights", "5,6,22,33", "--smax", "65"): {
        "json": "b962c2cd80ec2d3037dad35a5a486a11483c1fdda1f22c60ef71112010cd0013",
        "csv": "768dfe77f55ee9c3bdb965fb05021f9bc63d8fb171266a4c7346b4e369658f00",
        "md": "b05184d2c9c44adbb4a20cf601ab819fb35b1109c02d9d5dd4cf79c8077d8517",
    },
    ("lb", "--R", "2,4,4,7", "--N", "3"): {
        "json": "7f3a79ab974c0784179143cee38b486ba8d43bd741e0039dfe049833fd7e7af8",
        "csv": "fc2bdec6ec15d78868f7064a42b9703d11b744a949be6ecbf0e1eee33f639fea",
        "md": "9b763e54bb8774b2c1369205ab76db5e3a08d731b30f9e3319a1a9f788f6e76c",
    },
    ("eliminate", "--case", "1"): {
        "json": "3a2c3a6a4e5b095f0d082a18c9bc56fe24ffef314c73c89bc1de86a9ef07da6a",
        "csv": "6a3943a6c887210eeb34374c76cb0967aa2fa94478d66a76da3ebc982f70bc7f",
        "md": "4e47c5f19430f71dfa2dba3554acdf79eaebee5a0f50c187d944ded372bb5fe0",
    },
    ("eliminate", "--case", "35"): {
        "json": "0c5a8062c37a7ab13f9020bfa66c07d4378a2abf00267e0f066ae5acb36f3e0d",
        "csv": "9b881e6adcc278ced832d1203ea122161f001b273450a68c729698a6b0f1d2bd",
        "md": "ea2dd21b8eb05bc218f4e0dec5d343be835ae74379154d77b4e56f3327702252",
    },
    ("eliminate", "--case", "4"): {
        "json": "52e132c995baf7e8df01725dacdbd8748056c057aeba514673c93337a229dc55",
        "csv": "b0b80c8c05124bc237e8fd1822228e75b0312059aac4f0e4475dc0f7da69144e",
        "md": "0b3466c398986849c84f5a30e3531d1c40349f74d43a5383a397a2a839280fc7",
    },
    ("eliminate", "--case", "3"): {
        "json": "c9425e4e756dce289066a2a9a8fe94adbce861cad0db1a546a332bf8d985676d",
        "csv": "f7bb11cc50c43705ba5108d16a6372570f2c2fed8abb67de02fc242a1f16ef74",
        "md": "ee93144514c229e94e66cb6813c72f7f9487dc515a5d91a69a6ec97514b3b717",
    },
}


@pytest.mark.parametrize("argv", list(OUTPUT_SHA256), ids=" ".join)
def test_output_bytes(capsys, argv):
    for fmt, digest in OUTPUT_SHA256[argv].items():
        code, text, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0, fmt
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    """A KeyError inside a command is an engine fault, not bad input: it
    propagates instead of exiting 2 as a usage error."""

    def broken_lookup(args):
        raise KeyError("missing table entry")

    monkeypatch.setattr("fano3.cli.cmd_lb", broken_lookup)
    with pytest.raises(KeyError):
        main(["lb", "--R", "2,3", "--N", "3"])


def test_search_table_mismatch_exits_1(monkeypatch, capsys, candidates_greater):
    """A search that disagrees with the frozen table is an InvariantViolation
    of run_full_pipeline naming the keys on each side; main prints it as one
    `invariant violation:` line and exits 1."""
    first, *rest = candidates_greater
    moved = first._replace(rXc13=first.rXc13 + 1)
    monkeypatch.setattr("fano3.search.run_search", lambda q_min, mode, workers: [moved, *rest])
    assert run_cli(capsys, "eliminate", "--all") == (
        1,
        "",
        f"invariant violation: search and frozen table differ: only the search has "
        f"{[moved.key]}, only the table has {[first.key]}\n",
    )


def test_survivors_exit_1(monkeypatch, capsys, pipeline_report):
    """`eliminate --all` with a survivor writes no report, one stderr line, and exits 1."""
    report = pipeline_report._replace(eliminated=35, survivors=[35])
    monkeypatch.setattr("fano3.cli.run_full_pipeline", lambda workers: report)
    assert run_cli(capsys, "eliminate", "--all") == (1, "", "survivors remain: [35]\n")


def test_case_not_eliminated_exits_1(monkeypatch, capsys):
    """`eliminate --case N` on a candidate every route stalls on (its budget
    raised out of reach) writes no certificate, one stderr line, and exits 1."""
    c = candidate_for_case(4)
    monkeypatch.setattr("fano3.cli.candidate_for_case", lambda n: c._replace(nabla=c.nabla + 10**6))
    assert run_cli(capsys, "eliminate", "--case", "4") == (1, "", "case 4 not eliminated\n")
