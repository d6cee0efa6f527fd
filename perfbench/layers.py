"""Per-layer metrics: from the spans of a traced pass, and from single
layers timed alone on fixed instances.

The layers are the package's modules: bench (study harness and disk
cache), gpcore (likelihood, fit, predict, save/load), corrparam
(cross-correlation build), design (sliced LHDs) and testbed (sliced
functions, slice maxima, empirical correlations).
"""

import statistics
import time

import numpy as np

import mixedgp.corrparam as corrparam
import mixedgp.gpcore as gpcore
import mixedgp.testbed as testbed

from tracing import self_times
from workloads import derive_seed, training_set

# family.s<levels> of every fit study_upended makes.
FIT_KEYS = ("EC.s4", "MC.s4", "LRC3.s4", "UC.s4", "EC.s6", "MC.s6", "LRC3.s6", "UC.s6")
MAX_EVALS_PER_DIM = 150   # gpcore.fit's default budget per start and parameter

CORR_FAMILIES = ("EC", "MC", "LRC2", "LRC3", "UC")
CORR_LEVELS = (4, 6)
# (function, n): the likelihood instances of study_upended, and one at
# N=256 where the O(N^3) algebra dominates instead of per-call overhead.
INSTANCES = {"s4n32": ("ackley_s4_up13", 8), "s6n24": ("ackley_s6_up124", 4),
             "s4n256": ("ackley_s4_up13", 64)}
INSTANCE_FAMILY = "UC"
INSTANCE_LENGTHSCALE = 0.3

# Spans whose total seconds are reported as ``<name>.s``, from set-up.
SETUP_LAYERS = ("gpcore.save_fit", "testbed.get_testbed_function",
                "testbed.empirical_cross_corr", "bench.cached_empirical_corr",
                "bench.cached_test_set")
# ... and from the traced pass.
PASS_LAYERS = ("bench.run_experiment", "bench.rmse_corr", "bench.q_squared",
               "design.cslhd", "testbed.eval_sliced_batch", "gpcore.predict_batch",
               "gpcore.load_fit")


def span_metrics(setup_spans, pass_spans):
    out = {}
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = sum(r[4] - r[3] for r in setup_spans if r[2] == name)
    for name in PASS_LAYERS:
        out[f"{name}.s"] = sum(r[4] - r[3] for r in pass_spans if r[2] == name)

    own = self_times(pass_spans)
    out["bench.self_s"] = sum(own[r[0]] for r in pass_spans if r[2] == "bench.run_experiment")
    corr = [r for r in pass_spans if r[2] == "corrparam.corr_values"]
    out["corrparam.corr_values.calls"] = len(corr)
    out["corrparam.corr_values.self_s"] = sum(own[r[0]] for r in corr)

    points = sum(r[5] for r in pass_spans if r[2] == "gpcore.predict_batch")
    predict_s = out["gpcore.predict_batch.s"]
    out["gpcore.predict_batch.pts_per_s"] = points / predict_s if predict_s else 0.0

    evals = {}
    for r in corr:
        evals[r[1]] = evals.get(r[1], 0) + 1
    fits = {key: [] for key in FIT_KEYS}
    for r in pass_spans:
        if r[2] == "gpcore.fit":
            key, dim, n_starts = r[5]
            fits[key].append((r[4] - r[3], evals.get(r[0], 0),
                              n_starts * MAX_EVALS_PER_DIM * dim))
    for key, rows in fits.items():
        seconds = statistics.fmean(row[0] for row in rows) if rows else 0.0
        count = statistics.fmean(row[1] for row in rows) if rows else 0.0
        budget = statistics.fmean(row[1] / row[2] for row in rows) if rows else 0.0
        out[f"gpcore.fit.seconds.{key}"] = seconds
        out[f"gpcore.fit.evals.{key}"] = count
        out[f"gpcore.fit.us_per_eval.{key}"] = 1e6 * seconds / count if count else 0.0
        out[f"gpcore.fit.budget_frac.{key}"] = budget
    return out


def per_call_us(fn, target_s=0.02, repeats=7):
    """Median over repeats of the time per call, in microseconds."""
    t0 = time.perf_counter()
    fn()
    single = time.perf_counter() - t0
    loops = max(1, int(target_s / max(single, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return 1e6 * statistics.median(samples)


def fixed_cat_params(spec):
    """A fixed interior point: one third of the way across the family's box."""
    box = corrparam.cat_param_bounds(spec)
    return box[:, 0] + (box[:, 1] - box[:, 0]) / 3.0


def micro_metrics(seed):
    out = {}
    for s in CORR_LEVELS:
        for label in CORR_FAMILIES:
            spec = corrparam.FamilySpec.parse(label, s)
            values = fixed_cat_params(spec)
            out[f"corrparam.corr_values.us.{label}.s{s}"] = per_call_us(
                lambda: corrparam.corr_values(spec, values))
    for name, (fid, n) in INSTANCES.items():
        fn = testbed.get_testbed_function(fid)
        train = training_set(fn, n, derive_seed(seed, "instance", name))
        spec = corrparam.FamilySpec.parse(INSTANCE_FAMILY, fn.s)
        cat = fixed_cat_params(spec)
        ls = np.full(train.q, INSTANCE_LENGTHSCALE)
        config = gpcore.KernelConfig(ls, spec, cat)
        P = config.corr_matrix()
        psi = np.r_[ls, cat]
        out[f"gpcore.build_R.us.{name}"] = per_call_us(lambda: gpcore.build_R(train, config, P))
        out[f"gpcore.concentrated_nll.us.{name}"] = per_call_us(
            lambda: gpcore.concentrated_nll(psi, train, spec))
    return out
