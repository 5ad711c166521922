"""A command line builds a `Fraction` only where JSON is read or a report written.

Maps and tensors hold integer rows over one denominator, so the work between
parsing and writing makes no `Fraction`.  Each command below runs in this
process with `Fraction.__new__` patched to note the functions on the stack
of every construction; each construction must have a ``from_json`` (reading
a file) or a ``to_json`` or ``_entries`` (writing a report) frame below it.
The commands are one of each file check and conversion, ``verify
linfinity``, and the two saved ``check mc`` inputs: the dense one and the
system, whose twisted square is checked.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rbsinfty import cli

DATA = Path(__file__).resolve().parent / "data"
BOUNDARY = {"from_json", "to_json", "_entries"}

COMMANDS = [
    ["check", "rbs", str(DATA / "rbs_graded_input.json")],
    ["check", "ybp", str(DATA / "ybp_graded_input.json")],
    ["check", "hrbs", str(DATA / "hrbs_graded_input.json")],
    ["check", "aybe-infinity", str(DATA / "aybe_random_input.json")],
    ["check", "mc", str(DATA / "mc_dense_input.json")],
    ["check", "mc", str(DATA / "mc_system_input.json")],
    ["convert", "rbs-to-ybp", str(DATA / "rbs_graded_input.json")],
    ["convert", "ybp-to-rbs", str(DATA / "ybp_graded_input.json")],
    ["verify", "linfinity"],
]


@pytest.fixture
def constructions(monkeypatch):
    """The names of the functions on the stack of each `Fraction` built
    while the fixture is in use, one set per construction."""
    made = []
    original = Fraction.__new__

    def noting(cls, *args, **kwargs):
        names, frame = set(), sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        made.append(names)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", noting)
    return made


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]) + " " + Path(argv[-1]).name
)
def test_fractions_are_built_only_at_the_json_boundary(argv, constructions, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1) and '"error"' not in out
    outside = [names for names in constructions if not names & BOUNDARY]
    assert not outside, f"{len(outside)} of {len(constructions)} built outside the boundary"


def test_the_patch_sees_the_fractions_of_parsing(constructions, capsys):
    # the dense cochain's coefficients are read by Fraction's parser, so the
    # patched constructor is reached, and only under from_json
    assert cli.main(["check", "mc", str(DATA / "mc_dense_input.json")]) == 1
    capsys.readouterr()
    assert constructions and all("from_json" in names for names in constructions)
    assert Fraction(1, 2) == Fraction(2, 4)  # the patch keeps Fraction working
