"""Span tracing around the library's public functions, from outside it.

`Tracer.install` replaces each traced function by a wrapper in every
`lefdefect` module that bound it (for example `torus_defect` is bound in
`effectivity`, `checks`, `cli` and the package itself), and `uninstall` puts
the originals back.  Each call becomes a span (name, start, end, parent span,
job id) kept in flat arrays until the traced run ends.  While `active` is
false the wrappers call straight through and record nothing.  A span's self time
is its duration minus the durations of its child spans.

Layer names follow the package's modules; `purekernels` is the module
`_purekernels` (metric names cannot start with an underscore), and
`exactmath` covers the functions the subpackage re-exports.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

TRACED = (
    ("purekernels", "lefdefect._purekernels", ("scan_range", "scan_vectors", "rank_int")),
    ("effectivity", "lefdefect.effectivity",
     ("torus_defect", "defect_survey", "is_effective_class", "radical", "divisor_case_data")),
    ("torus", "lefdefect.torus", ("ns_basis", "hom_rank", "quotient", "subtorus")),
    ("cohomology", "lefdefect.cohomology", ("defect_of_class", "wedge", "cup_matrix")),
    ("exactmath", "lefdefect.exactmath",
     ("nf_sign", "kernel_basis", "restrict_scalars", "integer_kernel_basis", "saturate",
      "complement_data")),
    ("checks", "lefdefect.checks",
     ("check_oracle", "check_voisin", "check_kunneth", "check_lefschetz")),
    ("classifier", "lefdefect.classifier", ("classify",)),
    ("schema", "lefdefect.schema", ("load_document",)),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, _, fns in TRACED for fn in fns)
SEARCHES = ("effectivity.torus_defect", "effectivity.defect_survey")
SCANS = ("purekernels.scan_range", "purekernels.scan_vectors")
# Stages of a search with their own spans; the rest of its time is preparation.
SEARCH_STAGES = SCANS + ("torus.ns_basis",)


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.stack = []  # open spans: [span id, child time]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.candidates = 0
        self.effective = 0
        self.job = -1
        self.active = True
        self._patches = []

    def _wrap(self, name_id, fn):
        name = self.names[name_id]
        clock = time.perf_counter
        stack = self.stack
        cols = (self.name_col, self.start_col, self.end_col, self.parent_col, self.job_col)
        name_col, start_col, end_col, parent_col, job_col = cols
        is_search = name in SEARCHES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(start_col)
            name_col.append(name_id)
            parent_col.append(stack[-1][0] if stack else -1)
            job_col.append(self.job)
            end_col.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            start_col.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                end_col[span] = end
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if is_search:
                found = result[0] if isinstance(result, tuple) else result
                self.candidates += found.classes_scanned
            return result

        return traced

    def _count_effective(self, evaluate):
        @functools.wraps(evaluate)
        def counted(search, coeffs):
            verdict = evaluate(search, coeffs)
            if verdict[0] and self.active:
                self.effective += 1
            return verdict

        return counted

    def install(self):
        """Patch every binding of the traced functions and of the scan's
        per-candidate `evaluate` (which counts effective candidates)."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lefdefect" or n.startswith("lefdefect."))]
        for layer, module_name, fns in TRACED:
            for fn in fns:
                original = getattr(sys.modules[module_name], fn)
                wrapper = self._wrap(self.names.index(f"{layer}.{fn}"), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        kernels = sys.modules["lefdefect._purekernels"]
        for cls in (kernels.IntSearch, kernels.FieldSearch):
            self._patches.append((cls, "evaluate", cls.evaluate))
            cls.evaluate = self._count_effective(cls.evaluate)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def prep_s(self) -> float:
        """Search time outside the scan, the structured extras and ns_basis."""
        names = self.names
        searches = {names.index(n) for n in SEARCHES}
        stages = {names.index(n) for n in SEARCH_STAGES}
        either = stages | searches
        prep = 0.0
        for span, name_id in enumerate(self.name_col):
            if name_id in searches:
                prep += self.end_col[span] - self.start_col[span]
            elif name_id in stages:
                parent = self.parent_col[span]
                while parent >= 0 and self.name_col[parent] not in either:
                    parent = self.parent_col[parent]
                if parent >= 0 and self.name_col[parent] in searches:
                    prep -= self.end_col[span] - self.start_col[span]
        return prep

    def write_spans(self, path):
        """One tab-separated line per span, times relative to the first."""
        origin = self.start_col[0] if len(self.start_col) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for span in range(len(self.start_col)):
                out.write(
                    f"{span}\t{self.names[self.name_col[span]]}\t"
                    f"{self.start_col[span] - origin:.7f}\t{self.end_col[span] - origin:.7f}\t"
                    f"{self.parent_col[span]}\t{self.job_col[span]}\n"
                )

    def metrics(self) -> dict:
        """Per-layer metric values (name -> (value, unit)), without overheads."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.self_s[name], "s")
        scan_s = sum(self.total_s[n] for n in SCANS)
        out["effectivity.search.candidates"] = (self.candidates, "count")
        out["effectivity.search.effective"] = (self.effective, "count")
        out["effectivity.search.effective_ratio"] = (
            self.effective / self.candidates if self.candidates else 0.0, "ratio")
        out["effectivity.search.prep_s"] = (self.prep_s(), "s")
        out["effectivity.search.candidates_per_s"] = (
            self.candidates / scan_s if scan_s else 0.0, "1/s")
        return out

    def table(self) -> str:
        """Per-layer self-time table of the spans that ran, largest first."""
        total = sum(self.self_s.values()) or 1.0
        rows = sorted((n for n in self.calls if self.calls[n]), key=lambda n: -self.self_s[n])
        lines = [f"{'span':<36} {'calls':>9} {'self_s':>10} {'share':>7}"]
        for name in rows:
            lines.append(
                f"{name:<36} {self.calls[name]:>9} {self.self_s[name]:>10.4f} "
                f"{100 * self.self_s[name] / total:>6.1f}%"
            )
        return "\n".join(lines)
