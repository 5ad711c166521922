"""Write a dense degree -1 cochain for ``rbsinfty check mc`` to stdout.

The cochain has every column tag at every arity up to the truncation, each
admissible entry filled with a seeded coefficient. The output each input
goes to is fixed as in ``perfbench.workloads.dense_cochain``, which caps the
arities of the benchmark's cochain; this one does not, so it measures how
``check mc`` grows with the truncation::

    python3 tools/dense_cochain.py --degrees -1 0 --truncation 4 --seed 1 > dense.json
    PYTHONPATH=src python3 -m rbsinfty.cli check mc dense.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import SCALARS, commutes, map_json, space_json  # noqa: E402


def dense_cochain(rng: random.Random, degrees: list[int], truncation: int) -> dict:
    """Every tag at every arity <= ``truncation``; an arity-1 operator that
    commutes with a nonzero arity-1 algebra map is drawn again (every one
    commutes with the zero map, so none is redrawn then)."""
    suspended = {f"v{k + 1}": d + 1 for k, d in enumerate(degrees)}
    parts, tables = [], {}
    for tag in ("alg", "rbo_r", "rbo_s"):
        degree = -1 if tag == "alg" else 0
        for arity in range(1, truncation + 1):
            while True:
                table = {}
                for k, ins in enumerate(itertools.product(suspended, repeat=arity)):
                    target = sum(suspended[n] for n in ins) + degree
                    outs = [n for n in suspended if suspended[n] == target]
                    if outs:
                        table[ins] = {outs[k % len(outs)]: rng.choice(SCALARS)}
                m1 = tables.get(("alg", 1))
                if tag == "alg" or arity > 1 or not m1 or not commutes(table, m1, suspended):
                    break
            tables[tag, arity] = table
            parts.append({"tag": tag, "map": map_json(arity, degree, table)})
    return {"space": space_json(degrees), "degree": -1, "truncation": truncation, "parts": parts}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degrees", type=int, nargs="+", required=True)
    parser.add_argument("--truncation", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cochain = dense_cochain(random.Random(args.seed), args.degrees, args.truncation)
    json.dump(cochain, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
