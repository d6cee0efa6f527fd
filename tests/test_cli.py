"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mixedgp.cli import THREAD_VARS, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_matrix(text):
    return np.array([
        [float(v) for v in line.split(",")]
        for line in text.strip().splitlines()
    ])


def test_corr_build_ec(capsys):
    code, out, _ = run_cli(capsys, "corr", "build", "--family", "EC", "--s", "3",
                           "--params", "0.5")
    assert code == 0
    m = parse_matrix(out)
    assert m.shape == (3, 3)
    assert m[0, 1] == 0.5 and m[1, 1] == 1.0


def test_corr_build_lrc_rank(capsys):
    code, out, _ = run_cli(capsys, "corr", "build", "--family", "LRC", "--rank", "2",
                           "--s", "3", "--params", "1.0,2.0")
    assert code == 0
    m = parse_matrix(out)
    assert m[1, 2] == pytest.approx(np.cos(1.0 - 2.0), abs=1e-6)


@pytest.mark.parametrize("family,rank", [("EC", "2"), ("UC", "3")])
def test_corr_build_rejects_rank_outside_lrc(capsys, family, rank):
    code, out, err = run_cli(capsys, "corr", "build", "--family", family, "--rank", rank,
                             "--s", "4", "--params", "0.5,1.0,2.5")
    assert code == 2 and out == ""
    assert f"error: rank is only meaningful for LRC, not {family}" in err


def test_corr_build_domain_error(capsys):
    code, _, err = run_cli(capsys, "corr", "build", "--family", "EC", "--s", "3",
                           "--params", "1.5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv,named", [
    (["corr", "build", "--family", "EC", "--s", "3", "--params", "a"], "--params"),
    (["design", "generate", "--n", "2", "--q", "2", "--seed", "1", "--bounds", "0,1,0",
      "--out", "{tmp}/d.csv"], "--bounds"),
    (["design", "generate", "--n", "2", "--q", "1", "--seed", "1", "--bounds", "0,one",
      "--out", "{tmp}/d.csv"], "--bounds"),
    (["testbed", "corr", "--fn", "ackley", "--s", "4", "--upend", "x"], "--upend"),
    (["bench", "q2", "--data", "{tmp}/missing.csv"], "missing.csv"),
    (["bench", "q2", "--data", "{tmp}/text.csv"], "text.csv"),
    (["bench", "q2", "--data", "{tmp}/one_column.csv"], "one_column.csv"),
    (["bench", "corr-rmse", "--estimated", "{tmp}/missing.csv", "--empirical", "{tmp}/ok.csv"],
     "missing.csv"),
    (["bench", "corr-rmse", "--estimated", "{tmp}/ok.csv", "--empirical", "{tmp}/text.csv"],
     "text.csv"),
    (["design", "validate", "{tmp}/missing.csv"], "missing.csv"),
    (["bench", "summarize", "--records", "{tmp}/missing.csv"], "missing.csv"),
])
def test_malformed_input_exits_2_with_an_error_naming_it(capsys, tmp_path, argv, named):
    (tmp_path / "text.csv").write_text("y_true,y_pred\n1.0,one\n")
    (tmp_path / "one_column.csv").write_text("y_true\n1.0\n2.0\n")
    (tmp_path / "ok.csv").write_text("1.0,0.5\n0.5,1.0\n")
    code, out, err = run_cli(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "d.csv").exists()


def test_design_generate_and_validate(capsys, tmp_path):
    path = tmp_path / "d.csv"
    code, out, _ = run_cli(capsys, "design", "generate", "--n", "3", "--s", "4",
                           "--q", "2", "--seed", "5", "--out", str(path))
    assert code == 0 and "12 points" in out
    code, out, _ = run_cli(capsys, "design", "validate", str(path))
    assert code == 0 and "valid design" in out


def test_design_validate_rejects_corrupt_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slice,x1\n1,0.1\n1,0.2\n2,0.3\n")
    code, _, err = run_cli(capsys, "design", "validate", str(path))
    assert code == 2
    assert "level counts" in err


def test_design_generate_with_bounds(capsys, tmp_path):
    path = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "design", "generate", "--n", "2", "--s", "2",
                         "--q", "2", "--seed", "1", "--bounds=-5,5,0,2",
                         "--out", str(path))
    assert code == 0
    header = path.read_text().splitlines()[0]
    assert header == "slice,x1,x2,px1,px2"


def test_testbed_list(capsys):
    code, out, _ = run_cli(capsys, "testbed", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert any("ackley_s4_up13" in line for line in lines)


def test_testbed_positions_prints_table_row(capsys):
    code, out, _ = run_cli(capsys, "testbed", "positions", "--fn", "ackley", "--s", "4")
    assert code == 0
    assert out.strip() == "-32.77, 0.00, 10.92, 32.77"


def test_testbed_corr_counts_negatives(capsys):
    code, out, _ = run_cli(capsys, "testbed", "corr", "--fn", "ackley", "--s", "4",
                           "--upend", "1,3", "--resolution", "100")
    assert code == 0
    m = parse_matrix(out)
    assert m.shape == (4, 4)
    assert int((m[np.triu_indices(4, 1)] < 0).sum()) == 4


def test_bench_validate_config(capsys, tmp_path):
    good = tmp_path / "good.ini"
    good.write_text("[experiment]\nfunctions = ackley_s4\n")
    code, out, _ = run_cli(capsys, "bench", "validate-config", "--config", str(good))
    assert code == 0 and "ok" in out
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nfunctions = nope_s4\n")
    code, _, err = run_cli(capsys, "bench", "validate-config", "--config", str(bad))
    assert code == 1 and "unknown" in err


def test_bench_corr_rmse(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("1.0,1.0\n1.0,1.0\n")
    b.write_text("1.0,-1.0\n-1.0,1.0\n")
    code, out, _ = run_cli(capsys, "bench", "corr-rmse", "--estimated", str(a),
                           "--empirical", str(b))
    assert code == 0
    assert float(out.strip()) == 2.0


def test_bench_q2(capsys, tmp_path):
    data = tmp_path / "preds.csv"
    data.write_text("y_true,y_pred\n1.0,1.0\n2.0,2.0\n3.0,3.0\n")
    code, out, _ = run_cli(capsys, "bench", "q2", "--data", str(data))
    assert code == 0
    assert float(out.strip()) == 1.0


def test_bench_run_and_summarize(capsys, tmp_path):
    config = tmp_path / "study.ini"
    config.write_text(
        "[experiment]\n"
        "functions = ackley_s4\n"
        "n_values = 4\n"
        "families = EC\n"
        "replications = 2\n"
        "base_seed = 3\n"
        "resolution = 30\n"
        "test_size = 40\n"
        "\n[fit]\nn_starts = 3\nmax_evals_per_start = 200\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "bench", "run", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 0 and "2 records" in out
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.csv").exists()
    code, out, _ = run_cli(capsys, "bench", "summarize",
                           "--records", str(out_dir / "records.csv"),
                           "--out", str(tmp_path / "resummary.csv"))
    assert code == 0
    text = (tmp_path / "resummary.csv").read_text()
    assert text == (out_dir / "summary.csv").read_text()


def test_bench_summarize_reports_a_bad_records_file(capsys, tmp_path):
    records = tmp_path / "records.csv"
    records.write_text("function,s,n,family,rank,rep,rmse_corr,q2,fit_seconds,status\n"
                       "ackley_s4,4,4,EC,,0,0.5\n")
    code, out, err = run_cli(capsys, "bench", "summarize", "--records", str(records),
                             "--out", str(tmp_path / "summary.csv"))
    assert code == 2
    assert err.startswith("error:") and "record 1 has 7 cells" in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("fit_line", ["n_starts = abc", "n_starts = 0", "nugget = -1"])
def test_bench_run_rejects_invalid_fit_values(capsys, tmp_path, fit_line):
    config = tmp_path / "study.ini"
    config.write_text(f"[experiment]\nfunctions = ackley_s4\n\n[fit]\n{fit_line}\n")
    code, out, err = run_cli(capsys, "bench", "run", "--config", str(config),
                             "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and fit_line.split()[0] in err
    assert not (tmp_path / "out").exists()


def test_bench_run_exit_code_reports_failed_fits(capsys, tmp_path, monkeypatch):
    import mixedgp.bench as bench
    from mixedgp.errors import FitFailureError

    def failing_fit(train, spec, options):
        raise FitFailureError("injected failure")

    monkeypatch.setattr(bench, "fit", failing_fit)
    config = tmp_path / "study.ini"
    config.write_text(
        "[experiment]\nfunctions = ackley_s4\nn_values = 4\nfamilies = EC\n"
        "replications = 2\nresolution = 30\ntest_size = 40\n"
    )
    code, out, _ = run_cli(capsys, "bench", "run", "--config", str(config),
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert "wrote 2 records" in out and "(2 failed fits)" in out



# A fresh interpreter that runs ``bench run --jobs 2`` through ``main``
# and reports the thread counts of numpy's and scipy's OpenBLAS: before
# and after importing mixedgp, after ``main``, and in each pool worker
# (a stand-in for a study cell writes them).
BLAS_PROBE = r'''
import ctypes, json, os, sys
import numpy, scipy.linalg

def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[name] = getter()
    return found

def report_cell(*cell):
    with open(os.path.join(sys.argv[2], f"worker-{os.getpid()}.json"), "w") as fh:
        json.dump(blas_threads(), fh)
    return []

bare = blas_threads()
from mixedgp import bench, cli
imported = blas_threads()
bench._run_cell = report_cell
code = cli.main(["bench", "run", "--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "2"])
print(json.dumps({"code": code, "bare": bare, "imported": imported, "after": blas_threads()}))
'''


def probe_blas_threads(tmp_path, **thread_vars):
    """Run BLAS_PROBE with no thread variable set but ``thread_vars``."""
    config = tmp_path / "tiny.ini"
    config.write_text(
        "[experiment]\nfunctions = ackley_s4\nn_values = 4\nfamilies = EC\n"
        "replications = 2\nbase_seed = 1\nresolution = 10\ntest_size = 10\ntest_seed = 1\n"
    )
    out = tmp_path / "out"
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, str(config), str(out)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    workers = [json.loads(p.read_text()) for p in out.glob("worker-*.json")]
    assert report["code"] == 0 and workers
    if len(report["bare"]) != 2:
        pytest.skip("numpy's and scipy's OpenBLAS are not both loaded")
    return report, workers


def test_main_pins_blas_to_one_thread_in_process_and_pool_workers(tmp_path):
    report, workers = probe_blas_threads(tmp_path)
    assert report["imported"] == report["bare"]  # importing mixedgp pins nothing
    one = dict.fromkeys(report["bare"], 1)
    assert report["after"] == one
    assert all(w == one for w in workers)


def test_main_leaves_blas_threads_to_a_user_thread_variable(tmp_path):
    report, workers = probe_blas_threads(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert report["after"] == report["bare"]
    assert all(w == report["bare"] for w in workers)
