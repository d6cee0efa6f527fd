"""The gate script ``scripts/bitcheck.py``, imported and run in part."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bitcheck.py"


def test_bitcheck_config_and_profile_sections_run(monkeypatch, tmp_path):
    # the script reads the shipped configs and unpacks _profile's return;
    # a change to either must not break it unseen. Importing it sets the
    # BLAS thread variables and sys.path, which are restored afterwards.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bitcheck", SCRIPT)
    bitcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitcheck)
    lines = [line.split() for line in bitcheck.config_lines(str(tmp_path))]
    assert [line[:2] for line in lines] == [
        ["config", name] for name in ("desk_study.ini", "full_study.ini", "refactor_gate.ini")]
    # every profile digest, ending with the stack whose second point fails alone
    lines = [line.split() for line in bitcheck.profile_lines(str(tmp_path))]
    assert [line[:3] for line in lines[-2:]] == [["profile", "failing", f"grad{g}"] for g in (0, 1)]
    assert all(len(line[-1]) == 64 for line in lines)
