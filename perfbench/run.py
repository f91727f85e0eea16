"""fano3 benchmark: end-to-end metrics per workload, or a traced layer run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; fano3 is taken from the src/ directory next to perfbench/.
Every pass is one user-visible job in a fresh interpreter, one at a time
(a closed loop with one client), because a CLI user pays cold caches on
every call.  Passes repeat until another one would overrun --seconds; at
least one always runs.  Each pass's output is checked against the frozen
tables of fano3.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics with the tracing overhead.
The first stdout line records the run's context as JSON: seed, Python
version, nproc, load average, error rate and the sha256 of each distinct
job output.  One `name value unit` line per metric follows, and the last
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from pass_child import CASES_JOB, CLI_JOBS, WORKLOADS, case_order, vmhwm_kb  # noqa: E402

SETUP_SAMPLES = 11
RSS_POLL_S = 0.1
# A run ends within this many seconds, even if a pass hangs and is killed.
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "case_ms_p50": "ms",
    "case_ms_p95": "ms",
}

# Per-layer metric -> (unit, how it is read from one traced pass).  L is the
# layer table (calls, ns, self_ns per span name), C the counters.
PER_LAYER = {
    "search.step1.s": ("s", lambda L, C: _s(L, "search.step1", "ns")),
    "search.step1.out": ("count", lambda L, C: C.get("search.step1.out", 0)),
    "search.step2.self_s": ("s", lambda L, C: _s(L, "search.step2", "self_ns")),
    "search.step2.out": ("count", lambda L, C: C.get("search.step2.out", 0)),
    "basket.enumerate_baskets.s": ("s", lambda L, C: _s(L, "basket.enumerate_baskets", "ns")),
    "basket.enumerate_baskets.out": ("count", lambda L, C: C.get("basket.enumerate_baskets.out", 0)),
    "search.step3.self_s": ("s", lambda L, C: _s(L, "search.step3", "self_ns")),
    "search.step3.calls": ("count", lambda L, C: _calls(L, "search.step3")),
    "search.step3.keep_ratio": (
        "ratio", lambda L, C: _ratio(C.get("search.step3.kept", 0), _calls(L, "search.step3"))),
    "lb.LBContext.calls": ("count", lambda L, C: _calls(L, "lb.LBContext")),
    "lb.LBContext.s": ("s", lambda L, C: _s(L, "lb.LBContext", "ns")),
    "lb.lb.calls": ("count", lambda L, C: _calls(L, "lb.lb")),
    "lb.lb.s": ("s", lambda L, C: _s(L, "lb.lb", "ns")),
    "rr.nabla.calls": ("count", lambda L, C: _calls(L, "rr.nabla")),
    "rr.nabla.s": ("s", lambda L, C: _s(L, "rr.nabla", "ns")),
    "search.verify.s": ("s", lambda L, C: _s(L, "search.verify", "ns")),
    "search.run_search.s": ("s", lambda L, C: _s(L, "search.run_search", "ns")),
    "search.run_search.cpu_s": ("s", lambda L, C: C.get("search.run_search.cpu_ns", 0) / 1e9),
    "eliminate.pipeline.s": ("s", lambda L, C: _s(L, "eliminate.pipeline", "ns")),
    "cli.render.s": ("s", lambda L, C: _s(L, "cli.command", "self_ns")),
    "eliminate.group_a.s": ("s", lambda L, C: _s(L, "eliminate.group_a", "ns")),
    "eliminate.group_b.s": ("s", lambda L, C: _s(L, "eliminate.group_b", "ns")),
    "eliminate.group_c_minus.s": ("s", lambda L, C: _s(L, "eliminate.group_c_minus", "ns")),
    "eliminate.group_c_plus.s": ("s", lambda L, C: _s(L, "eliminate.group_c_plus", "ns")),
    "eliminate.solver.calls": ("count", lambda L, C: _calls(L, "eliminate.solver")),
    "eliminate.solver.s": ("s", lambda L, C: _s(L, "eliminate.solver", "ns")),
    "eliminate.solver.unsat_ratio": (
        "ratio", lambda L, C: _ratio(C.get("eliminate.solver.unsat", 0), _calls(L, "eliminate.solver"))),
    "eliminate.solver.domain": ("count", lambda L, C: C.get("eliminate.solver.domain", 0)),
    "rr.residue_term_builder.calls": ("count", lambda L, C: _calls(L, "rr.residue_term_builder")),
    "eliminate.candidate_for_case.s": ("s", lambda L, C: _s(L, "eliminate.candidate_for_case", "ns")),
    "certificates.to_dict.s": ("s", lambda L, C: _s(L, "certificates.to_dict", "ns")),
}
# Read from the pass's output and timings rather than from its trace.
DERIVED_LAYER = {
    "search.pool.busy_ratio": "ratio",
    "certificates.json_bytes": "bytes",
    "certificates.mechanical_steps": "count",
    "certificates.cited_steps": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer values that must repeat exactly from one traced pass to the next.
EXACT_UNITS = ("count", "bytes")


def _s(layers, name, key):
    return layers.get(name, {}).get(key, 0) / 1e9


def _calls(layers, name):
    return layers.get(name, {}).get("calls", 0)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def pool_width(workload) -> int:
    """The --jobs a workload passes to fano3 (1 when it passes none)."""
    argv = CLI_JOBS.get(workload, [])
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


# ---------------------------------------------------------------------------
# Running one pass
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class PeakRss(threading.Thread):
    """Polls the peak RSS (VmHWM) of a process and all its descendants."""

    def __init__(self, root_pid):
        super().__init__(daemon=True)
        self.root = root_pid
        self.hwm_kb = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(RSS_POLL_S):
            for pid in _descendants(self.root):
                kb = vmhwm_kb(pid)
                if kb > self.hwm_kb.get(pid, 0):
                    self.hwm_kb[pid] = kb

    def stop(self):
        self.done.set()
        self.join()


def _descendants(root):
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parent_of[int(entry)] = int(stat.rsplit(b")", 1)[1].split()[1])
    tree, frontier = {root}, [root]
    while frontier:
        frontier = [pid for pid, ppid in parent_of.items() if ppid in frontier and pid not in tree]
        tree.update(frontier)
    return tree


@dataclass
class Pass:
    """One finished pass: its measurements and the child's report."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report: dict | None
    stderr: str
    problems: list = field(default_factory=list)


def run_pass(workload, seed, trace, tiny=False, timeout=RUN_LIMIT_S) -> Pass:
    """Run one pass in a fresh interpreter, in its own process group, and
    measure its wall time, CPU time and peak RSS, pool workers included.
    The pass is killed after ``timeout`` seconds."""
    cmd = [sys.executable, str(HERE / "pass_child.py"), workload, str(seed), str(int(trace))]
    if tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=ROOT, start_new_session=True,
    )
    rss = PeakRss(proc.pid)
    rss.start()
    killer = threading.Timer(timeout, _kill_group, (proc.pid,))
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        rss.stop()
        _kill_group(proc.pid)  # leave no stray pool worker behind
        proc.stdout.close()
        proc.stderr.close()
    report = None
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    # The pass's own peak as it reports it, plus each worker's polled peak.
    own_kb = report["peak_rss_kb"] if report else rss.hwm_kb.get(proc.pid, 0)
    workers_kb = sum(kb for pid, kb in rss.hwm_kb.items() if pid != proc.pid)
    done = Pass(wall, usage.ru_utime + usage.ru_stime, (own_kb + workers_kb) / 1024, report,
                err[0].decode(errors="replace") if err else "")
    if report is None:
        done.problems.append(f"pass exited {proc.returncode} without a report: {done.stderr[-2000:]}")
    return done


def _kill_group(pgid):
    """Kill every process left in the group and wait until none is left."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        pass


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to `import fano3` done."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-c", "import time, fano3; print(time.monotonic_ns())"],
        env=child_env(), cwd=ROOT, capture_output=True, check=True, timeout=60,
    )
    return (int(done.stdout) - start) / 1e9


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def _key(basket, q, j_a, rXc13):
    return (tuple(tuple(p) for p in basket), q, j_a, rXc13)


def check_pass(workload, seed, report) -> list:
    """Problems with one pass's report; an empty list means it is correct."""
    from fano3 import tables  # here, not at the top: main() first checks src/ exists

    if report["rc"] != 0:
        return [f"exit code {report['rc']}"]
    problems = []
    main_keys = {row.no: row.key for row in tables.TABLE_MAIN}
    cases = report["cases"]
    if workload == "search-equal":
        records = json.loads(report["output"])["payload"]
        got = sorted(_key(r["basket"], r["q"], r["J_A"], r["rXc13"]) for r in records)
        if got != sorted(row.key for row in tables.TABLE_EQ66):
            problems.append("q = 66 candidates differ from TABLE_EQ66")
        return problems
    if workload == CASES_JOB:
        if [c["case"] for c in cases] != case_order(seed, len(main_keys)):
            problems.append("cases did not run in the seeded order")
    else:
        summary = json.loads(report["output"])["summary"]
        if (summary["total"], summary["eliminated"], summary["survivors"]) != (len(main_keys), len(main_keys), []):
            problems.append(f"pipeline summary {summary}")
    if sorted(c["case"] for c in cases) != sorted(main_keys):
        problems.append("the eliminated cases are not the table's cases")
    for c in cases:
        if _key(*c["key"]) != main_keys.get(c["case"]):
            problems.append(f"case {c['case']}: candidate differs from TABLE_MAIN")
        if not c["eliminated"]:
            problems.append(f"case {c['case']} survives")
    certs = certificates_of(workload, report)
    if [c["case_id"] for c in certs] != sorted(main_keys):
        problems.append("certificates are not one per case in case order")
    for cert in certs:
        if not any(s["outcome"] == "contradiction" for s in cert["steps"]):
            problems.append(f"certificate {cert['case_id']} has no contradiction")
    return problems


def certificates_of(workload, report) -> list:
    if workload == "search-equal":
        return []
    if workload == CASES_JOB:
        return [json.loads(line) for line in report["output"].splitlines()]
    return json.loads(report["output"])["payload"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup) -> dict:
    cases_ms = [c["ns"] / 1e6 for p in passes if p.report for c in p.report["cases"]]
    if not cases_ms:  # search-equal eliminates nothing: its one case is the job
        cases_ms = [p.wall_s * 1000 for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "case_ms_p50": statistics.median(cases_ms),
        "case_ms_p95": _p95(cases_ms),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def layer_values(workload, traced: Pass, untraced: Pass) -> dict:
    trace = traced.report["trace"]
    layers, counters = trace["layers"], trace["counters"]
    values = {name: read(layers, counters) for name, (_, read) in PER_LAYER.items()}
    certs = certificates_of(workload, traced.report)
    wall = values["search.run_search.s"]
    values.update({
        "search.pool.busy_ratio": _ratio(values["search.run_search.cpu_s"], pool_width(workload) * wall),
        "certificates.json_bytes": sum(len(json.dumps(c).encode()) for c in certs),
        "certificates.mechanical_steps": sum(s["kind"] == "mechanical" for c in certs for s in c["steps"]),
        "certificates.cited_steps": sum(s["kind"] == "cited-lemma" for c in certs for s in c["steps"]),
        "trace.traced_wall_s": traced.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    })
    return values


def per_layer(workload, pairs) -> tuple:
    """Median of each per-layer metric over (untraced, traced) pass pairs,
    and the problems found: exact counts must repeat from pass to pass."""
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} | DERIVED_LAYER
    samples = [layer_values(workload, traced, untraced) for untraced, traced in pairs]
    problems = []
    metrics = {}
    for name, unit in units.items():
        vals = [s[name] for s in samples]
        if unit in EXACT_UNITS:
            if len(set(vals)) > 1:
                problems.append(f"{name} differs between traced passes: {vals}")
            value = vals[0]
        else:
            value = statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def judge(workload, seed, p: Pass) -> Pass:
    if p.report is not None:
        try:
            p.problems.extend(check_pass(workload, seed, p.report))
        except (KeyError, TypeError, ValueError) as exc:
            p.problems.append(f"malformed output: {exc!r}")
    return p


def run_benchmark(workload, seed, seconds, trace) -> tuple:
    """Run the passes of one benchmark run; return (result, context)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not trace:
        measure_setup()  # untimed: compiles the bytecode, as an installed package has it
    setup, passes, pairs = [], [], []
    start = time.perf_counter()

    # Each pass draws its own seed from --seed, so a run averages over many
    # case orders while the same --seed repeats the same orders.
    pass_seeds = random.Random(seed)

    def one_pass(traced):
        pass_seed = pass_seeds.getrandbits(32)
        p = run_pass(workload, pass_seed, traced, timeout=max(1.0, deadline - time.perf_counter()))
        return judge(workload, pass_seed, p)

    while True:
        # Set-up samples are spread over the run, so they see the machine in
        # the same states as the passes do.
        while (not trace and len(setup) < SETUP_SAMPLES
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(measure_setup())
        begun = time.perf_counter()
        if trace:
            untraced, traced = one_pass(False), one_pass(True)
            passes += [untraced, traced]
            if not (untraced.problems or traced.problems):
                pairs.append((untraced, traced))
        else:
            passes.append(one_pass(False))
        step = time.perf_counter() - begun
        if time.perf_counter() - start + step > seconds:
            break
    if not trace:
        setup += [measure_setup() for _ in range(SETUP_SAMPLES - len(setup))]
    problems = [msg for p in passes for msg in p.problems]
    if trace:
        metrics, extra = per_layer(workload, pairs) if pairs else ({}, ["no clean traced pass"])
        problems += extra
    else:
        metrics = end_to_end(passes, setup)
    failed = sum(1 for p in passes if p.problems)
    result = {
        "correct": not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "passes": len(passes),
        "error_rate": failed / len(passes),
        "sha256": sorted({hashlib.sha256(p.report["output"].encode()).hexdigest()
                          for p in passes if p.report}),
        "problems": problems[:20],
    }
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fano3" / "__init__.py").is_file():
        print(f"error: no fano3 sources under {SRC}", file=sys.stderr)
        return 2
    result, context = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(context))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"error_rate {context['error_rate']} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
