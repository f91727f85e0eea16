"""One benchmark pass: a workload's user-visible job in a fresh interpreter.

usage: python3 perfbench/pass_child.py WORKLOAD SEED TRACE [--tiny]

fano3 is imported from the checkout's src/ (the parent sets PYTHONPATH).
The job runs once; the last line on stdout is a JSON report with the exit
code, the job's output text, the elimination cases in the order they ran
with their latency, this process's peak RSS and, when TRACE is 1, the
per-layer trace summary.

--tiny narrows search step 1 to the index multisets R of the frozen tables.
Every table row comes from those R, so the output is unchanged while a
pipeline pass takes seconds instead of minutes; the harness self-test uses it.
"""

from __future__ import annotations

import io
import json
import random
import sys
from time import perf_counter_ns

import tracing

# The argv of `fano3 ...` for each workload that is one CLI call.
CLI_JOBS = {
    "pipeline-serial": ["eliminate", "--all", "--format", "json", "--jobs", "1"],
    "pipeline-w2": ["eliminate", "--all", "--format", "json", "--jobs", "2"],
    "search-equal": ["search", "--qmin", "66", "--mode", "equal", "--format", "json"],
}
CASES_JOB = "eliminate-cases"
WORKLOADS = (*CLI_JOBS, CASES_JOB)


def case_order(seed: int, n_cases: int) -> list:
    """The case ids 1..n_cases in the order the seed shuffles them to."""
    order = list(range(1, n_cases + 1))
    random.Random(seed).shuffle(order)
    return order


def run_cli(argv, cases):
    """`fano3 ARGV` with stdout captured; each eliminate_candidate call
    inside it is appended to ``cases``."""
    from fano3 import cli, eliminate

    inner = eliminate.eliminate_candidate

    def timed_case(case_id, candidate):
        start = perf_counter_ns()
        verdict = inner(case_id, candidate)
        cases.append(_case_record(case_id, candidate, verdict, start))
        return verdict

    eliminate.eliminate_candidate = timed_case
    real_stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        rc = cli.main(argv)
        return rc, sys.stdout.getvalue()
    finally:
        sys.stdout = real_stdout


def run_cases(seed, cases):
    """The `fano3 eliminate --case N` job for every frozen case, in seeded
    order: rebuild the candidate, eliminate it, serialise its certificate."""
    from fano3 import certificates, eliminate, tables

    texts = {}
    for case_id in case_order(seed, len(tables.TABLE_MAIN)):
        start = perf_counter_ns()
        candidate = eliminate.candidate_for_case(case_id)
        verdict = eliminate.eliminate_candidate(case_id, candidate)
        texts[case_id] = json.dumps(certificates.certificate_to_dict(verdict.certificate))
        cases.append(_case_record(case_id, candidate, verdict, start))
    return 0, "".join(texts[n] + "\n" for n in sorted(texts))


def _case_record(case_id, candidate, verdict, start):
    return {
        "case": case_id,
        "ns": perf_counter_ns() - start,
        "key": candidate.key,
        "eliminated": verdict.eliminated,
    }


def vmhwm_kb(pid="self") -> int:
    """Peak RSS of a process since its exec, from /proc (0 once it is gone).

    Unlike ru_maxrss, VmHWM does not count the memory the parent had when it
    forked the process."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def narrow_step1():
    """Restrict search step 1 to the R of the frozen table rows."""
    from fano3 import search, tables

    wanted = {tuple(r for r, _ in row.basket) for row in tables.TABLE_MAIN + tables.TABLE_EQ66}
    full = search.step1

    def step1(q_min):
        return ((R, c2c1) for R, c2c1 in full(q_min) if R in wanted)

    search.step1 = step1


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if "--tiny" in argv[3:]:
        narrow_step1()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    cases = []
    if workload == CASES_JOB:
        rc, output = run_cases(seed, cases)
    else:
        rc, output = run_cli(CLI_JOBS[workload], cases)
    report = {"rc": rc, "output": output, "cases": cases, "peak_rss_kb": vmhwm_kb()}
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
