"""Outside-in layer tracing for one benchmark pass.

The tracer replaces public functions of the fano3 modules, at their module
attributes, with timing shims.  Each call (or, for a generator, each
``next``) is one span: its id, the id of the span open when it began, its
name and its start and end in ``perf_counter_ns``.  Spans stay in memory;
``summary`` derives calls, total time and self time per layer (a span's
duration minus the part covered by its child spans) once the job is done.

Pool workers forked by ``run_search`` inherit the shims.  Each worker traces
its own work unit and sends the unit's summary back to the parent inside the
pickled result (``_WorkerResult``), where ``_adopt_worker_result`` merges it
into the tracer that was installed in the parent.
"""

from __future__ import annotations

import functools
import os
import resource
from collections import Counter, defaultdict
from time import perf_counter_ns

# The tracer installed in this process; pool results are merged into it.
_installed = None


def _cpu_ns() -> int:
    """User+sys time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return int(total * 1e9)


class _WorkerResult(list):
    """A worker's candidate list that carries the worker's layer summary."""

    def __init__(self, items, summary):
        super().__init__(items)
        self.summary = summary

    def __reduce__(self):
        return _adopt_worker_result, (list(self), self.summary)


def _adopt_worker_result(items, summary):
    _installed.merged.append(summary)
    return items


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.merged = []  # summaries sent back by pool workers
        self.reset()

    def reset(self):
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns)
        self.stack = [0]  # open span ids; 0 is the root
        self.next_id = 1
        self.counters = Counter()

    # -- shims ---------------------------------------------------------------

    def wrap(self, owner, attr, name, on_result=None):
        """Trace each call of ``owner.attr``; ``on_result(counters, args,
        result)`` may count what the call was given and returned."""
        orig = getattr(owner, attr)

        @functools.wraps(orig, updated=())
        def shim(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = self.stack[-1]
            self.stack.append(sid)
            start = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        setattr(owner, attr, shim)

    def wrap_generator(self, owner, attr, name):
        """Trace each ``next`` of the generators ``owner.attr`` returns and
        count the items they yield as ``<name>.out``."""
        orig = getattr(owner, attr)
        out_key = name + ".out"

        @functools.wraps(orig, updated=())
        def shim(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                sid = self.next_id
                self.next_id = sid + 1
                parent = self.stack[-1]
                self.stack.append(sid)
                start = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = perf_counter_ns()
                    self.stack.pop()
                    self.spans.append((sid, parent, name, start, end))
                self.counters[out_key] += 1
                yield item

        setattr(owner, attr, shim)

    def wrap_cpu(self, owner, attr, name):
        """Trace ``owner.attr`` and count its CPU time, pool workers included,
        as ``<name>.cpu_ns``."""
        self.wrap(owner, attr, name)
        timed = getattr(owner, attr)
        cpu_key = name + ".cpu_ns"

        @functools.wraps(timed, updated=())
        def shim(*args, **kwargs):
            before = _cpu_ns()
            try:
                return timed(*args, **kwargs)
            finally:
                self.counters[cpu_key] += _cpu_ns() - before

        setattr(owner, attr, shim)

    def wrap_work_unit(self, owner, attr):
        """In a forked pool worker, trace ``owner.attr`` afresh and return its
        summary with the result; in this process, leave the call alone."""
        orig = getattr(owner, attr)

        @functools.wraps(orig, updated=())
        def shim(*args, **kwargs):
            if os.getpid() == self.pid:
                return orig(*args, **kwargs)
            self.reset()
            self.merged = []
            found = orig(*args, **kwargs)
            return _WorkerResult(found, self.summary())

        setattr(owner, attr, shim)

    def install(self):
        """Shim every traced layer of the fano3 modules."""
        global _installed
        from fano3 import certificates, cli, eliminate, search

        _installed = self
        self.wrap_generator(search, "step1", "search.step1")
        self.wrap_generator(search, "step2", "search.step2")
        self.wrap_generator(search, "enumerate_baskets", "basket.enumerate_baskets")
        self.wrap(search, "step3", "search.step3", _count_kept)
        self.wrap(search, "LBContext", "lb.LBContext")
        self.wrap(search, "lb", "lb.lb")
        self.wrap(search, "nabla", "rr.nabla")
        self.wrap(search, "verify_candidate", "search.verify")
        self.wrap_work_unit(search, "_process_units")
        # cli and run_full_pipeline look run_search up by these two names
        self.wrap_cpu(search, "run_search", "search.run_search")
        cli.run_search = search.run_search
        self.wrap(cli, "run_full_pipeline", "eliminate.run_full_pipeline")
        self.wrap(cli, "cmd_search", "cli.command")
        self.wrap(cli, "cmd_eliminate", "cli.command")
        self.wrap(eliminate, "candidate_for_case", "eliminate.candidate_for_case")
        self.wrap(eliminate, "eliminate_candidate", "eliminate.pipeline")
        self.wrap(eliminate, "eliminate_group_a", "eliminate.group_a")
        self.wrap(eliminate, "run_group_b_script", "eliminate.group_b")
        self.wrap(eliminate, "eliminate_group_c_minus", "eliminate.group_c_minus")
        self.wrap(eliminate, "eliminate_group_c_plus", "eliminate.group_c_plus")
        self.wrap(eliminate, "exists_integral_solution", "eliminate.solver", _count_solver)
        self.wrap(eliminate, "residue_term_builder", "rr.residue_term_builder")
        self.wrap(certificates, "certificate_to_dict", "certificates.to_dict")

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self nanoseconds per layer, plus the counters,
        summed over this process and every merged worker summary."""
        covered = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        layers = {}
        for sid, _, name, start, end in self.spans:
            rec = layers.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            rec["calls"] += 1
            rec["ns"] += end - start
            rec["self_ns"] += end - start - covered.get(sid, 0)
        counters = Counter(self.counters)
        for other in self.merged:
            for name, rec in other["layers"].items():
                mine = layers.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
                for key in mine:
                    mine[key] += rec[key]
            counters.update(other["counters"])
        return {"layers": layers, "counters": dict(counters)}


def _count_kept(counters, args, candidate):
    if candidate is not None:
        counters["search.step3.kept"] += 1


def _count_solver(counters, args, result):
    counters["eliminate.solver.domain"] += args[0].domain_size
    if not result[0]:
        counters["eliminate.solver.unsat"] += 1
