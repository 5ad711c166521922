"""Byte-for-byte comparison of CLI reports with saved golden files.

The files under ``tests/data/`` hold the exact stdout of `main` for three
passing verifications and one failing ``verify d-squared`` whose witnesses
print their coefficients as strings, so a change of coefficient type or of a
sign shows up as a changed byte.  The failing report comes from a copy of
d m4 with its first term's sign flipped, as in
``tests/test_cli.py::test_verify_d_squared_failure_carries_witnesses``.
Two more hold the reports of ``check mc`` on the saved cochains described
at ``MC_CASES``, two the reports of ``check aybe-infinity`` on the
saved pairs described at ``AYBE_CASES``, and three the failing reports of
``check rbs``, ``check ybp`` and ``check hrbs`` described at ``FILE_CASES``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rbsinfty import minimal_model
from rbsinfty.cli import main
from rbsinfty.trees import OperadElement, gen

DATA = Path(__file__).parent / "data"

CASES = {
    "d_squared_mrs_4.json": ["verify", "d-squared", "--presentation", "mrs", "--max-arity", "4"],
    "d_squared_xyz_5.json": ["verify", "d-squared", "--presentation", "xyz", "--max-arity", "5"],
    "homotopy_3_3.json": ["verify", "homotopy", "--max-arity", "3", "--max-weight", "3"],
    "d_squared_flipped_m4.json": ["verify", "d-squared", "--max-arity", "5"],
}
EXIT_CODES = {name: 1 if "flipped" in name else 0 for name in CASES}


def _flip_first_term_of_d_m4(monkeypatch):
    real = minimal_model.diff_generator
    m4 = gen("m", 4)
    flipped_tree = next(real(m4).items())[0]

    def stand_in(g):
        image = real(g)
        if g != m4:
            return image
        return OperadElement(
            image.arity,
            ((t, -c if t == flipped_tree else c) for t, c in image.terms.items()),
        )

    monkeypatch.setattr(minimal_model, "diff_generator", stand_in)


def report_bytes(name, capsys, monkeypatch):
    """The exit code and stdout of `main` for one case."""
    if "flipped" in name:
        _flip_first_term_of_d_m4(monkeypatch)
    code = main(CASES[name])
    monkeypatch.undo()
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, capsys, monkeypatch):
    code, out = report_bytes(name, capsys, monkeypatch)
    assert code == EXIT_CODES[name]
    assert out == (DATA / name).read_text()


# `check mc` on saved inputs: the dense cochain of the ``mc-dense`` benchmark
# workload (V = (-1, 0, 0), truncation 3, seed 12345), which is not
# Maurer-Cartan, and the diagonal Rota-Baxter system (3/2 P_1, -2 P_2), which
# is, so its twisted square runs over every basis cochain of arity <= 2.
MC_CASES = {
    "check_mc_dense.json": ("mc_dense_input.json", 1),
    "check_mc_system.json": ("mc_system_input.json", 0),
}


@pytest.mark.parametrize("name", sorted(MC_CASES))
def test_check_mc_report_matches_golden_file(name, capsys):
    source, exit_code = MC_CASES[name]
    assert main(["check", "mc", str(DATA / source)]) == exit_code
    assert capsys.readouterr().out == (DATA / name).read_text()


# `check aybe-infinity` on saved pairs over End(V), V = (v1: 0, v2: 1): a
# passing pair (r_2 = 1/2 e1^1 (x) e1^1, s_2 = -e2^2 (x) e2^2 and an order-3
# s_3 with odd factors, no d) and a failing seeded pair (d, r_n, s_n up to
# order 4), whose residuals at n = 1, 2, 3 carry witnesses.
AYBE_CASES = {
    "check_aybe_system.json": ("aybe_system_input.json", 0),
    "check_aybe_random.json": ("aybe_random_input.json", 1),
}


@pytest.mark.parametrize("name", sorted(AYBE_CASES))
def test_check_aybe_infinity_report_matches_golden_file(name, capsys):
    source, exit_code = AYBE_CASES[name]
    assert main(["check", "aybe-infinity", str(DATA / source)]) == exit_code
    assert capsys.readouterr().out == (DATA / name).read_text()


# `check rbs`, `check ybp` and `check hrbs` on seeded inputs over V = (v1: 0,
# v2: 1), each failing, so that witnesses with odd basis elements are printed:
# degree-0 operators R, S on End(V); degree-0 order-2 tensors r, s over End(V);
# and a homotopy structure with m_n, R_n, S_n for n <= 3.
FILE_CASES = {
    "check_rbs_graded.json": ("rbs", "rbs_graded_input.json"),
    "check_ybp_graded.json": ("ybp", "ybp_graded_input.json"),
    "check_hrbs_graded.json": ("hrbs", "hrbs_graded_input.json"),
}


@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_check_report_matches_golden_file(name, capsys):
    command, source = FILE_CASES[name]
    assert main(["check", command, str(DATA / source)]) == 1
    assert capsys.readouterr().out == (DATA / name).read_text()
