"""The gate script ``scripts/bitcheck.py``, imported and run in part."""

import importlib.util
import itertools
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bitcheck.py"


def load_bitcheck(monkeypatch):
    """The script as a module. Importing it sets the BLAS thread
    variables and sys.path, which are restored after the test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bitcheck", SCRIPT)
    bitcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitcheck)
    return bitcheck


def test_bitcheck_config_and_profile_sections_run(monkeypatch, tmp_path):
    # the script reads the shipped configs and unpacks _profile's return;
    # a change to either must not break it unseen
    bitcheck = load_bitcheck(monkeypatch)
    lines = [line.split() for line in bitcheck.config_lines(str(tmp_path))]
    assert [line[:2] for line in lines] == [
        ["config", name] for name in ("desk_study.ini", "full_study.ini", "refactor_gate.ini")]
    # every profile digest, ending with the stack whose second point fails alone
    lines = [line.split() for line in bitcheck.profile_lines(str(tmp_path))]
    assert [line[:3] for line in lines[-2:]] == [["profile", "failing", f"grad{g}"] for g in (0, 1)]
    assert all(len(line[-1]) == 64 for line in lines)


def test_bitcheck_load_section_digests_every_model(monkeypatch, tmp_path):
    # one sha256 digest per predict_grid model, of the reloaded model's
    # numbers and its training set's arrays
    bitcheck = load_bitcheck(monkeypatch)
    lines = [line.split() for line in bitcheck.load_lines(str(tmp_path))]
    assert len(lines) == 168 and len({line[1] for line in lines}) == 168
    assert all(line[0] == "load" and line[1].endswith(".json")
               and re.fullmatch("[0-9a-f]{64}", line[2]) for line in lines)
    # a reload whose training set standardizes otherwise changes its digest
    first = lines[0][2]
    monkeypatch.setattr(bitcheck.gpcore, "_YSTD_FLOOR", math.inf)
    assert next(bitcheck.load_lines(str(tmp_path / "floored"))).split()[2] != first


def test_bitcheck_grid_section_digests_every_model(monkeypatch, tmp_path):
    # one sha256 digest per predict_grid model: the section reads the
    # workload's models and grids, and predict_batch's kept query
    bitcheck = load_bitcheck(monkeypatch)
    lines = [line.split() for line in bitcheck.grid_lines(str(tmp_path))]
    assert len(lines) == 168 and len({line[1] for line in lines}) == 168
    assert all(line[0] == "grid" and line[1].endswith(".json")
               and re.fullmatch("[0-9a-f]{64}", line[2]) for line in lines)
    # a product-grid rule that rules the grids out fails the section
    monkeypatch.setattr(bitcheck.gpcore, "_product_grid", lambda columns, cap: None)
    with pytest.raises(AssertionError, match=r"\.json"):
        next(bitcheck.grid_lines(str(tmp_path / "blocks")))


def test_bitcheck_scatter_section_digests_models(monkeypatch, tmp_path):
    # the block path's section: its first lines, one sha256 digest per
    # predict_grid model on the scattered query
    bitcheck = load_bitcheck(monkeypatch)
    lines = [line.split() for line in
             itertools.islice(bitcheck.scatter_lines(str(tmp_path)), 8)]
    assert len(lines) == 8 and len({line[1] for line in lines}) == 8
    assert all(line[0] == "scatter" and line[1].endswith(".json")
               and re.fullmatch("[0-9a-f]{64}", line[2]) for line in lines)


def test_bitcheck_searches_section_digests_every_search(monkeypatch, tmp_path):
    # one sha256 digest per search of the study_upended fits, 8 fits of
    # 10 starts, in creation order; the search is unwrapped afterwards
    bitcheck = load_bitcheck(monkeypatch)
    monkeypatch.setattr(bitcheck.bench, "fit", bitcheck.bench.fit)  # the workload wraps it
    search = bitcheck.gpcore._lbfgsb_search
    lines = [line.split() for line in bitcheck.searches_lines(str(tmp_path))]
    assert [line[:2] for line in lines] == [["searches", str(k)] for k in range(80)]
    assert all(re.fullmatch("[0-9a-f]{64}", line[2]) for line in lines)
    assert len({line[2] for line in lines}) == 80
    assert bitcheck.gpcore._lbfgsb_search is search


def test_bitcheck_prints_the_named_sections_in_order(monkeypatch, capsys):
    bitcheck = load_bitcheck(monkeypatch)
    assert list(bitcheck.SECTIONS) == ["config", "gate", "load", "grid", "scatter", "desk",
                                       "profile", "fit", "searches"]
    for name in bitcheck.SECTIONS:
        monkeypatch.setitem(bitcheck.SECTIONS, name, lambda tmp, name=name: [f"{name} line"])
    assert bitcheck.main(["fit", "grid", "scatter"]) == 0
    assert capsys.readouterr().out.splitlines() == ["grid line", "scatter line", "fit line"]
    assert bitcheck.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name} line" for name in bitcheck.SECTIONS]


def test_bitcheck_rejects_an_unknown_section():
    # run as a script: the config section alone, then a misspelt name
    run = [sys.executable, str(SCRIPT)]
    done = subprocess.run(run + ["config"], capture_output=True, text=True, check=True)
    assert [line.split()[:2] for line in done.stdout.splitlines()] == [
        ["config", name] for name in ("desk_study.ini", "full_study.ini", "refactor_gate.ini")]
    done = subprocess.run(run + ["grid", "scater"], capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert "scater" in done.stderr
    assert "config gate load grid scatter desk profile fit searches" in done.stderr


def test_loc_counts_every_line_of_src():
    # the totals of scripts/loc.py: every line of every module under
    # src/, and fewer code lines, a comment and a docstring left out
    root = SCRIPT.parent.parent
    done = subprocess.run([sys.executable, str(SCRIPT.parent / "loc.py"), str(root / "src")],
                          capture_output=True, text=True, check=True)
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    files = sorted((root / "src").rglob("*.py"))
    assert [Path(line[2]) for line in modules] == files
    assert all(int(line[0]) == len(path.read_text().splitlines())
               for line, path in zip(modules, files))
    assert total[2] == "total"
    assert int(total[0]) == sum(len(path.read_text().splitlines()) for path in files)
    assert int(total[1]) == sum(int(line[1]) for line in modules) < int(total[0])


def test_loc_leaves_out_blank_comment_and_docstring_lines(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Module\n\ndocstring."""\n\n# a comment\nimport os  # code\n\n\n'
                      'def f(a,\n      b):\n    """Doc."""\n    return """not a\n docstring"""\n')
    done = subprocess.run([sys.executable, str(SCRIPT.parent / "loc.py"), str(module)],
                          capture_output=True, text=True, check=True)
    assert [line.split()[:2] for line in done.stdout.splitlines()] == [["13", "5"]] * 2
