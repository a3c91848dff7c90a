"""Per-layer trace of netcert, recorded from outside the library.

Every call site in netcert looks its callees up through a module
(``crown.propagate``, ``relax.layer_line_spaces``, ``simplex.solve_inequality_form``
and so on), so replacing a module attribute with a timing wrapper sees every
call.  Coarse functions become spans (name, search id, start, end, parent),
kept in flat arrays in memory and written out once at the end.  The
per-neuron relaxation functions run tens of thousands of times per search,
so they only add to a call counter and a time total.  Times are process
CPU time, like the end-to-end figures.

The wrappers are installed around one traced search and removed afterwards,
so untraced searches and the correctness checks run the unmodified library.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import process_time

#: (module, function) pairs recorded as spans
SPAN_FUNCTIONS = (
    ("certify", "search_epsilon"),
    ("certify", "certified_at"),
    ("crown", "propagate"),
    ("crown", "choose_layer_lines"),
    ("crown", "backward_rows"),
    ("relax", "layer_line_spaces"),
    ("frown", "frown_propagate"),
    ("frown", "optimize_bounds"),
    ("frown", "objective_and_gradient"),
    ("frown", "_materialize"),
    ("lp", "lp_propagate"),
    ("lp", "build_lp"),
    ("lp", "solve"),
    ("simplex", "solve_inequality_form"),
)

#: (module, function) pairs recorded as call counters with a time total
COUNTER_FUNCTIONS = (
    ("relax", "line_space"),
    ("relax", "validate_line"),
)


class Tracer:
    """Spans and counters for the netcert functions listed above."""

    def __init__(self, package):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_search = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: Counter = Counter()
        self.counter_calls: Counter = Counter()
        self.counter_time: Counter = Counter()
        # relax.family_frac: one-variable spaces / all spaces
        self.spaces_total = 0
        self.spaces_family = 0
        # lp problem sizes
        self.lp_problems = 0
        self.lp_rows = 0
        self.lp_cols = 0
        self.search_id = -1
        self._stack: list[int] = []
        self._patches = []
        hooks = {
            "relax.layer_line_spaces": self._count_spaces,
            "lp.build_lp": self._count_lp_size,
        }
        for mod_name, attr in SPAN_FUNCTIONS:
            module = getattr(package, mod_name)
            name = f"{mod_name}.{attr}"
            self._patches.append((module, attr, getattr(module, attr),
                                  self._span_wrapper(name, getattr(module, attr),
                                                     hooks.get(name))))
        for mod_name, attr in COUNTER_FUNCTIONS:
            module = getattr(package, mod_name)
            name = f"{mod_name}.{attr}"
            self._patches.append((module, attr, getattr(module, attr),
                                  self._counter_wrapper(name, getattr(module, attr))))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self._stack.clear()

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, name, fn, on_result):
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(nid)
            self.span_search.append(self.search_id)
            self.span_parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                t1 = process_time()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counter_wrapper(self, name, fn):
        calls, total = self.counter_calls, self.counter_time

        def counted(*args, **kwargs):
            t0 = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += process_time() - t0
                calls[name] += 1

        return counted

    def _count_spaces(self, result) -> None:
        for side in result:
            self.spaces_total += len(side)
            self.spaces_family += sum(1 for sp in side if sp.kind == "one-variable")

    def _count_lp_size(self, problem) -> None:
        self.lp_problems += 1
        self.lp_rows += problem.A_eq.shape[0] + problem.A_ub.shape[0]
        self.lp_cols += problem.n_vars

    # -- aggregation --------------------------------------------------------

    def span_totals(self):
        """name -> (calls, total seconds, self seconds) over all spans."""
        n = len(self.span_start)
        child = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for idx in range(n):
            name = self.names[self.span_name[idx]]
            dur = self.span_end[idx] - self.span_start[idx]
            calls[name] += 1
            total[name] += dur
            self_time[name] += dur - child[idx]
        return {name: (calls[name], total[name], self_time[name])
                for name in self.names}

    def write_spans(self, path) -> None:
        """Write every span as CSV: name, search, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,search,start_s,end_s,parent\n")
            for idx in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[idx]]},"
                         f"{self.span_search[idx]},"
                         f"{self.span_start[idx]!r},{self.span_end[idx]!r},"
                         f"{self.span_parent[idx]}\n")
