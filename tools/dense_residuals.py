"""Time the full-arity residual set of the dense structure and hash it.

The structure is the dense cochain of ``tools/dense_cochain.py`` read as a
homotopy Rota-Baxter system on the unsuspended module: each algebra map of
arity n and degree -1 on sV becomes m_n (degree n - 2) and each operator
R_n, S_n (degree n - 1), with the same entries, which are homogeneous of
those degrees on V.  With every member at arity <= T, the residuals that
can be nonzero are those of m_n for n <= 2T - 1 and of R_n, S_n for
n <= T^2; the tool evaluates all of them through the public residual
functions, then prints the seconds they took and one SHA-256 over their
serialized tables::

    python3 tools/dense_residuals.py --truncation 4 --seed 1

Run in two checkouts, equal hashes show that both compute the same tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from dense_cochain import dense_cochain  # noqa: E402
from rbsinfty.graded import GradedSpace, MultiMap  # noqa: E402
from rbsinfty.residuals import (  # noqa: E402
    HomotopyRBS,
    hrbs_residual_R,
    hrbs_residual_S,
    stasheff_residual,
)

FAMILIES = {"alg": ("m", 2), "rbo_r": ("r", 1), "rbo_s": ("s", 1)}


def dense_structure(degrees: list[int], truncation: int, seed: int) -> HomotopyRBS:
    """The dense cochain of ``seed`` desuspended, with the truncation T^2."""
    cochain = dense_cochain(random.Random(seed), degrees, truncation)
    space = GradedSpace.from_json(cochain["space"])
    families: dict[str, dict] = {"m": {}, "r": {}, "s": {}}
    for part in cochain["parts"]:
        family, shift = FAMILIES[part["tag"]]
        arity = part["map"]["arity"]
        data = {**part["map"], "degree": arity - shift}
        families[family][arity] = MultiMap.from_json(space, space, data)
    return HomotopyRBS(space, truncation=truncation**2, **families)


def residuals(structure: HomotopyRBS, truncation: int) -> list[tuple[str, int, MultiMap]]:
    """Every residual that can be nonzero, labelled by family and arity."""
    out = [("m", n, stasheff_residual(structure, n)) for n in range(1, 2 * truncation)]
    for n in range(1, truncation**2 + 1):
        out.append(("R", n, hrbs_residual_R(structure, n)))
        out.append(("S", n, hrbs_residual_S(structure, n)))
    return out


def digest(tables: list[tuple[str, int, MultiMap]]) -> str:
    """One SHA-256 over the labelled tables, serialized as `to_json` does."""
    sha = hashlib.sha256()
    for family, n, residual in tables:
        sha.update(json.dumps([family, n, residual.to_json()], sort_keys=True).encode())
    return sha.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--truncation", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--degrees", type=int, nargs="+", default=[-1, 0])
    args = parser.parse_args()
    structure = dense_structure(args.degrees, args.truncation, args.seed)
    start = time.perf_counter()
    tables = residuals(structure, args.truncation)
    seconds = time.perf_counter() - start
    nonzero = sum(not residual.is_zero() for _, _, residual in tables)
    print(f"seconds {seconds:.3f}")
    print(f"residuals {len(tables)} nonzero {nonzero}")
    print(f"sha256 {digest(tables)}")


if __name__ == "__main__":
    main()
