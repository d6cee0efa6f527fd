"""In-memory span recorder that wraps module attributes at layer boundaries.

A span is ``[id, parent_id, name, start, end, tag]``. Spans are kept in
a list while the run lasts and written out once at the end. Wrapping
replaces a module attribute, so only callers that resolve the attribute
at call time (``module.func(...)`` or a module-global lookup inside that
module) are traced; that is how every call named in ``BOUNDARIES`` is
made in the package.
"""

import gzip
import importlib
import json
import time

from mixedgp.corrparam import param_count
from mixedgp.gpcore import FitOptions


def fit_key(args, kwargs):
    """``(label.s<levels>, parameter dimension, n_starts)`` of a ``fit`` call."""
    train, spec = args[0], args[1]
    options = args[2] if len(args) > 2 else kwargs.get("options") or FitOptions()
    dim = train.q + (param_count(spec) if spec is not None else 0)
    label = spec.label if spec is not None else "GP"
    return (f"{label}.s{train.n_levels}", dim, options.n_starts)


def rows(args, kwargs):
    """Number of query rows of a ``predict_batch(fit, X, levels)`` call."""
    X = args[1]
    return len(X) if getattr(X, "ndim", 1) > 1 else 1


# (module, attribute, span name, tag function). The span name is the
# layer that does the work; the tag records what the per-layer metrics
# need from the call's arguments.
BOUNDARIES = (
    ("mixedgp.bench", "run_experiment", "bench.run_experiment", None),
    ("mixedgp.bench", "fit", "gpcore.fit", fit_key),
    ("mixedgp.bench", "predict_batch", "gpcore.predict_batch", rows),
    ("mixedgp.bench", "rmse_corr", "bench.rmse_corr", None),
    ("mixedgp.bench", "q_squared", "bench.q_squared", None),
    ("mixedgp.bench", "cached_empirical_corr", "bench.cached_empirical_corr", None),
    ("mixedgp.bench", "cached_test_set", "bench.cached_test_set", None),
    ("mixedgp.design", "cslhd", "design.cslhd", None),
    ("mixedgp.testbed", "eval_sliced_batch", "testbed.eval_sliced_batch", None),
    ("mixedgp.testbed", "get_testbed_function", "testbed.get_testbed_function", None),
    ("mixedgp.testbed", "empirical_cross_corr", "testbed.empirical_cross_corr", None),
    ("mixedgp.gpcore", "corr_values", "corrparam.corr_values", None),
    ("mixedgp.gpcore", "predict_batch", "gpcore.predict_batch", rows),
    ("mixedgp.gpcore", "load_fit", "gpcore.load_fit", None),
    ("mixedgp.gpcore", "save_fit", "gpcore.save_fit", None),
)


class Tracer:
    """Records nested spans around the functions in ``BOUNDARIES``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, name, tag in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, tag))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def mark(self) -> int:
        """Index of the next span, to slice the spans of one phase."""
        return len(self.spans)

    def _wrap(self, fn, name, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   tag(args, kwargs) if tag else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Calls are single-threaded, so children never overlap each other and
    lie inside their parent.
    """
    own = {rec[0]: rec[4] - rec[3] for rec in spans}
    for rec in spans:
        if rec[1] in own:
            own[rec[1]] -= rec[4] - rec[3]
    return own
