#!/usr/bin/env python3
"""Print sha256 digests of loaded study configs and of fitted and predicted numbers.

Run from the root of a source checkout; diff the output of two
checkouts to see whether a change keeps every bit:

    python3 scripts/bitcheck.py > bits_after.txt
    diff bits_before.txt bits_after.txt

Name sections to print only those, in the order below whatever the
order named (an unknown name exits with status 2):

    python3 scripts/bitcheck.py [config|gate|load|grid|scatter|desk|profile|fit|searches ...]

Nine sections, one digest per line:

* ``config``: ``repr`` of ``load_config`` of each study config in
  ``scripts/configs/`` (``desk_study.ini``, ``full_study.ini`` and
  ``refactor_gate.ini``), so a change to the config reader is checked
  by the same diff as the fitted bits;
* ``gate``: ``scripts/configs/refactor_gate.ini``'s ``records.csv``
  below its ``# generated`` header line;
* ``load``: each of the 168 ``predict_grid`` models of
  ``perfbench/workloads.py`` reloaded with ``load_fit``: its
  ``neg_log_lik``, ``mu_hat``, ``sigma2_hat``, ``chol_R``, ``alpha`` and
  ``level_table``, and its training set's ``X01``, ``absdiff``, ``rhs``,
  ``y_mean``, ``y_std``, ``level_indicator`` and ``pair_index``, so the
  bits of a reload are checked directly, not only through predictions;
* ``grid``: predictions of the same 168 models on their 100 x 100
  grid, reloaded with ``load_fit``: every level in ascending order and
  then per-row levels on one model, per-row levels and then every
  level in descending order on a second. Each grid lists its rows in
  ``"ij"`` order, a product grid in nested order, which
  ``predict_batch`` predicts by one matrix product per call, with no
  gather at one level; the section fails if a model's kept query after
  its first call is no grid;
* ``scatter``: predictions of the same 168 models on one 10,000-row
  query drawn uniformly from the unit square and mapped to each model's
  bounds, reloaded with ``load_fit``: every level in ascending order,
  then per-row levels. At 16 to 48 training points that query spans 10
  to 30 of ``predict_batch``'s blocks: its columns have all-distinct
  values, so it is no product grid;
* ``fit``: the 8 fits of the ``study_upended`` workload (NLL,
  lengthscales, family parameters and ``start_objectives``);
* ``searches``: each of the 80 L-BFGS-B searches of those fits, in the
  order they are created: its start, its value f, final point,
  evaluation count, iterations and task code, so that a search a fit
  does not choose is checked too. A spy wraps
  ``gpcore._lbfgsb_search`` and passes on every argument after the
  start, so the section runs on any signature of the search whose
  first argument is the start;
* ``desk``: ``records.csv`` below its header line for each of the six
  studies of acceptance criterion 8 (base seeds 1000, 2000 and 3000;
  ackley_s4_up13 at n = 8 with EC, MC, LRC3 and UC, and ackley_s4 at
  n = 4 with EC and UC; 20 replications each), with ``timing = none``
  and run serially: 360 fits. Their 3,600 searches end at different
  rounds, so a fit's searches are evaluated together in many different
  compositions of the stacked likelihood call, and every one must give
  the bits of a search evaluated alone;
* ``profile``: the likelihood ``gpcore._profile`` on its own, without
  and with the gradient, at N = 24, 48 and 96 training points (s = 4
  on ackley_s4_up13 and s = 6 on ackley_s6_up124), for every family
  and a continuous-only model, at stacks of k = 1, 2 and 3 points
  drawn in the search box (lengthscales log-uniform on [0.05, 2]),
  and for one stack of three at N = 48 whose first point lies
  outside UC's domain, which the likelihood does not check, and whose
  second has an R that does not factor (at nugget 0; 1e-8 elsewhere).
  Each line hashes the value, the mask of the points whose R factors,
  the GLS mean, the variance and the residuals (the factors too
  without the gradient, and the gradient with it) of those points;
  not the family matrices P that ``_profile`` also returns, which a
  model's level table is built from and the ``grid`` and ``scatter``
  sections check through the predictions.
  ``desk``, ``fit`` and ``searches`` stop at N = 32, and the desk
  study's costliest cells are at N = 48.

The workloads are imported from ``perfbench/`` and only read. BLAS runs
on one thread. A full run takes 20-25 s on a 2-vCPU x86-64 VM.
"""

import hashlib
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import mixedgp.bench as bench  # noqa: E402
import mixedgp.corrparam as corrparam  # noqa: E402
import mixedgp.gpcore as gpcore  # noqa: E402
import mixedgp.testbed as testbed  # noqa: E402
import workloads  # noqa: E402

CONFIGS = os.path.join(ROOT, "scripts", "configs")
GATE = os.path.join(CONFIGS, "refactor_gate.ini")
SEED = 0  # orders the workloads' operations, which no digest depends on


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def config_lines(tmp):
    for name in ("desk_study.ini", "full_study.ini", "refactor_gate.ini"):
        cfg = bench.load_config(os.path.join(CONFIGS, name))
        yield f"config {name} {hashlib.sha256(repr(cfg).encode()).hexdigest()}"


def gate_lines(tmp):
    out = os.path.join(tmp, "gate")
    bench.run_experiment(bench.load_config(GATE), out)
    with open(os.path.join(out, "records.csv"), encoding="utf-8") as fh:
        body = fh.read().split("\n", 1)[1]
    yield f"gate records.csv {hashlib.sha256(body.encode()).hexdigest()}"


def load_lines(tmp):
    grid = workloads.make("predict_grid", tmp, SEED)
    grid.setup()
    for path, _, _ in sorted(grid.models):
        model = gpcore.load_fit(path)
        train = model.train
        yield (f"load {os.path.basename(path)} "
               + digest([model.neg_log_lik, model.mu_hat, model.sigma2_hat], model.chol_R,
                        model.alpha, model.level_table, train.X01, train.absdiff, train.rhs,
                        [train.y_mean, train.y_std], train.level_indicator, train.pair_index))


def grid_lines(tmp):
    grid = workloads.make("predict_grid", tmp, SEED)
    grid.setup()
    for path, fid, _ in sorted(grid.models):
        name = os.path.basename(path)
        X = grid.grid[fid][0]
        up, down = gpcore.load_fit(path), gpcore.load_fit(path)
        s = up.train.n_levels
        rng = np.random.default_rng(workloads.derive_seed(SEED, name))
        per_row = rng.integers(1, s + 1, size=len(X))
        preds = [gpcore.predict_batch(up, X, lv) for lv in range(1, s + 1)]
        preds.append(gpcore.predict_batch(up, X, per_row))
        preds.append(gpcore.predict_batch(down, X, per_row))
        # a rule change that sends these grids to the block path fails here
        assert up._query.tables is not None and down._query.tables is not None, name
        preds += [gpcore.predict_batch(down, X, lv) for lv in range(s, 0, -1)]
        yield f"grid {name} {digest(*preds)}"


def scatter_lines(tmp):
    grid = workloads.make("predict_grid", tmp, SEED)
    grid.setup()
    U = np.random.default_rng(workloads.derive_seed(SEED, "scatter")).random((10_000, 2))
    for path, _, _ in sorted(grid.models):
        name = os.path.basename(path)
        model = gpcore.load_fit(path)
        lo, hi = model.train.bounds.T
        X = lo + U * (hi - lo)
        s = model.train.n_levels
        rng = np.random.default_rng(workloads.derive_seed(SEED, "scatter", name))
        preds = [gpcore.predict_batch(model, X, lv) for lv in range(1, s + 1)]
        preds.append(gpcore.predict_batch(model, X, rng.integers(1, s + 1, size=len(X))))
        yield f"scatter {name} {digest(*preds)}"


def fit_lines(tmp):
    study = workloads.make("study_upended", tmp, SEED)
    study.setup()
    study.run_pass(workloads.Result())
    for f in study.captured:
        spec = f.config.family_spec
        label = "none" if spec is None else spec.label
        cat = () if f.config.cat_params is None else f.config.cat_params
        yield (f"fit {f.train.n}x{f.train.n_levels} {label} "
               + digest([f.neg_log_lik], f.config.lengthscales, cat, f.start_objectives))


def searches_lines(tmp):
    real = gpcore._lbfgsb_search
    searches = []  # [start, result] of each search, in creation order

    def spy(u0, *args):
        entry = [u0.copy(), None]
        searches.append(entry)

        def run():
            entry[1] = yield from real(u0, *args)
            return entry[1]

        return run()

    gpcore._lbfgsb_search = spy
    try:
        study = workloads.make("study_upended", tmp, SEED)
        study.setup()
        study.run_pass(workloads.Result())
    finally:
        gpcore._lbfgsb_search = real
    for k, (u0, (f, u, nfev, nit, task)) in enumerate(searches):
        yield f"searches {k} {digest(u0, [f], u, [nfev, nit], task)}"


def desk_lines(tmp):
    for base_seed in (1000, 2000, 3000):
        for name, fid, n, families in (("up", "ackley_s4_up13", 8, ("EC", "MC", "LRC3", "UC")),
                                       ("orig", "ackley_s4", 4, ("EC", "UC"))):
            cfg = bench.ExperimentConfig(
                functions=(fid,), n_values=(n,), families=families, replications=20,
                base_seed=base_seed, resolution=100, test_size=100, test_seed=4242,
                timing="none")
            out = os.path.join(tmp, f"{name}{base_seed}")
            bench.run_experiment(cfg, out)
            with open(os.path.join(out, "records.csv"), encoding="utf-8") as fh:
                body = fh.read().split("\n", 1)[1]
            yield f"desk {name}{base_seed} {hashlib.sha256(body.encode()).hexdigest()}"


def profile_digest(train, ls, spec, cat, grad, nugget=1e-8):
    nll, ok, mu, sigma2, L, r, g, _ = gpcore._profile(train, ls, spec, cat, nugget, 1e-8,
                                                      grad=grad)
    return digest(nll, ok, mu[ok], sigma2[ok], r[ok], *(g,) if grad else (L[ok],))


def profile_lines(tmp):
    options = gpcore.FitOptions()
    for fid in ("ackley_s4_up13", "ackley_s6_up124"):
        fn = testbed.get_testbed_function(fid)
        for N in (24, 48, 96):
            train = workloads.training_set(fn, N // fn.s, workloads.derive_seed(SEED, fid, N))
            rng = np.random.default_rng(workloads.derive_seed(SEED, "profile", fid, N))
            for spec in [None, *bench.applicable_families(("auto",), fn.s)]:
                lo, hi = gpcore.psi_box(train.q, spec, options)
                label = "none" if spec is None else spec.label
                for k in (1, 2, 3):
                    ls = np.exp(rng.uniform(np.log(0.05), np.log(2.0), (k, train.q)))
                    cat = None if spec is None else rng.uniform(lo[train.q:], hi[train.q:],
                                                               (k, lo.size - train.q))
                    for grad in (False, True):
                        yield (f"profile N{N} s{fn.s} {label} k{k} grad{int(grad)} "
                               + profile_digest(train, ls, spec, cat, grad))
    # a stack with a point outside UC's domain, evaluated as any other,
    # and one whose R does not factor (lengthscales of 1000 at nugget 0)
    fn = testbed.get_testbed_function("ackley_s4_up13")
    train = workloads.training_set(fn, 12, workloads.derive_seed(SEED, "failing"))
    spec = corrparam.FamilySpec("UC", 4)
    ls = np.array([[0.3, 0.3], [1e3, 1e3], [0.2, 0.5]])
    cat = np.tile(np.linspace(0.5, 2.5, 6), (3, 1))
    cat[0, 0] = -0.5
    ok = gpcore._profile(train, ls, spec, cat, 0.0, 1e-8)[1]
    assert ok.tolist() == [True, False, True], ok
    for grad in (False, True):
        yield (f"profile failing grad{int(grad)} "
               + profile_digest(train, ls, spec, cat, grad, nugget=0.0))


# in print order; the study sections last: the study workload wraps bench.fit for good
SECTIONS = {section.__name__.removesuffix("_lines"): section
            for section in (config_lines, gate_lines, load_lines, grid_lines, scatter_lines,
                            desk_lines, profile_lines, fit_lines, searches_lines)}


def main(names) -> int:
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"unknown section {', '.join(unknown)}; valid sections: {' '.join(SECTIONS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name, section in SECTIONS.items():
            if not names or name in names:
                for line in section(os.path.join(tmp, section.__name__)):
                    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
