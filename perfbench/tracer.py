"""In-memory span tracer for spinshield, built from wrappers around its public functions.

Each wrapper is installed on the module (or class) where the caller looks
the name up: `sweep` and `cli` import `sample_coefficients`, `trial_rng`,
`run_sweep` and `normalization` by name, so those bindings are patched
there, not only in the defining module.  Leaving the `with` block puts every
original object back, also when the run raises.

A span is (name, start, end, parent index).  The traced run is serial, so
spans nest and never overlap, and a span's self time is its duration minus
the durations of its direct children.  The self times of one run therefore
add up to the root span, `cli.main`.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# The summed self times may miss this share of the traced wall time, which is
# measured outside the root wrapper.
SELF_SUM_TOL = 0.02

# (module, attribute, span name); a dotted attribute patches a class member.
PATCHES = (
    ("spinshield.cli", "main", "cli.main"),
    ("spinshield.cli", "run_sweep", "sweep.run_sweep"),
    ("spinshield.cli", "trial_rng", "sweep.trial_rng"),
    ("spinshield.cli", "sample_coefficients", "model.sample_coefficients"),
    ("spinshield.cli", "normalization", "model.normalization"),
    ("spinshield.sweep", "trial_seed", "sweep.trial_seed"),
    ("spinshield.sweep", "trial_rng", "sweep.trial_rng"),
    ("spinshield.sweep", "summarize", "sweep.summarize"),
    ("spinshield.sweep", "sample_coefficients", "model.sample_coefficients"),
    ("spinshield.model", "CoefficientSet.__post_init__", "model.CoefficientSet"),
    ("spinshield.oracle", "normalization", "model.normalization"),
    ("spinshield.closedform", "branch_sums", "closedform.branch_sums"),
    ("spinshield.closedform", "evaluate", "closedform.evaluate"),
    ("spinshield.closedform", "concurrence_closed", "closedform.concurrence_closed"),
    ("spinshield.closedform", "one_tangle_closed", "closedform.one_tangle_closed"),
    ("spinshield.closedform", "monogamy_slack", "closedform.monogamy_slack"),
    ("spinshield.oracle", "assemble_state", "oracle.assemble_state"),
    ("spinshield.oracle", "reduce", "oracle.reduce"),
    ("spinshield.oracle", "wootters_concurrence", "oracle.wootters_concurrence"),
    ("spinshield.oracle", "one_tangle", "oracle.one_tangle"),
    ("spinshield.oracle", "separability_structure_check", "oracle.separability_structure_check"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))
COUNTED = (
    "sweep.trial_rng",
    "model.sample_coefficients",
    "closedform.evaluate",
    "oracle.assemble_state",
)


def binding(module: str, attr: str):
    """(owner, name, bound object) for a patch target; a class member is read from its __dict__."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, owner.__dict__[name]


class Tracer:
    """Records spans and counts while installed with `with tracer:`."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.draw_keys: set = set()
        self.coefficient_bytes = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, name: str, fn, after=None):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name: str):
        if name == "sweep.trial_rng":
            return lambda args: self.draw_keys.add(tuple(args[:3]))
        if name == "model.CoefficientSet":
            def count_bytes(args):
                self.coefficient_bytes += args[0].x.nbytes + args[0].y.nbytes
            return count_bytes
        return None

    def __enter__(self):
        try:
            for module, attr, name in PATCHES:
                owner, attr, original = binding(module, attr)
                setattr(owner, attr, self._wrap(name, original, self._after(name)))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics that come from one traced run's spans and counts."""
        metrics = {f"{name}.self_s": t for name, t in self.self_times().items()}
        metrics.update({f"{name}.calls": self.calls[name] for name in COUNTED})
        draws = self.calls["model.sample_coefficients"]
        metrics["sweep.draw_reuse"] = len(self.draw_keys) / draws if draws else 0.0
        metrics["oracle.crosscheck_fraction"] = (
            self.calls["oracle.assemble_state"] / draws if draws else 0.0
        )
        metrics["model.CoefficientSet.bytes"] = self.coefficient_bytes
        return metrics

    def write_spans(self, path) -> None:
        """One `name,start,end,parent` line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
