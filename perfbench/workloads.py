"""Seeded inputs and expected verdicts for the benchmark workloads.

Every workload is a list of jobs.  A job is one command line for
``rbsinfty.cli.main`` plus the report it must produce: the exit code and the
fields, list lengths or whole report that the input was built to give.  The
inputs are written as JSON files with the standard library only, and every
expected verdict follows from the algebra of the input family, so no
library code runs while the inputs are made.

The families (all over exact rationals):

* on End(V) for an ungraded V, the operator pairs (0, 0), (l Id, 0) and the
  nilpotent pairs induced by c e_p^q (x) e_p^q with p != q satisfy both
  Rota-Baxter-system equations; (l Id, m Id) with l m != 0 violates both;
* the tensor pairs (c n, d n) with n = e_p^q (x) e_p^q, p != q, satisfy the
  coupled Yang-Baxter equations; (l e, m e) with e = e_i^i (x) e_i^i and
  l m != 0 do not;
* on the diagonal algebra (orthogonal idempotents v_i), (a P_i, b P_j) with
  i != j is a Rota-Baxter system and (a P_i, b P_i) with a b != 0 is not;
* the operator of an order-2 tensor over End(V) sends e_j^k to
  sum c e_i^l over its entries c e_i^j (x) e_k^l, which gives both sides of
  the conversion round trip.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

SCALARS = tuple(Fraction(x) for x in ("-3", "-2", "-1", "-1/2", "1/2", "1", "2", "3"))

# The layers each workload stresses, and those it never reaches: for an
# optimisation of a bypassed layer the prediction on that workload is "no
# change".  Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "operad-d2": {
        "stresses": ["minimal_model", "trees", "signs.inversion_sign"],
        "bypasses": ["monomial_model", "graded", "linfty", "residuals", "yang_baxter"],
    },
    "operad-homotopy": {
        "stresses": ["monomial_model", "minimal_model.extend_derivation", "trees"],
        "bypasses": ["minimal_model.diff_generator", "graded", "linfty", "residuals"],
    },
    "mc-dense": {
        "stresses": ["linfty", "graded", "signs.koszul_chi"],
        "bypasses": ["minimal_model", "monomial_model", "trees", "residuals", "yang_baxter"],
    },
    "file-checks": {
        "stresses": ["cli", "graded", "residuals", "yang_baxter", "linfty"],
        "bypasses": ["minimal_model", "monomial_model", "trees"],
    },
}


# -- JSON helpers ---------------------------------------------------------------------


def space_json(degrees: list[int]) -> dict:
    return {
        "basis": [{"name": f"v{k + 1}", "degree": d} for k, d in enumerate(degrees)]
    }


def map_json(arity: int, degree: int, table: dict) -> dict:
    entries = []
    for ins, outs in sorted(table.items()):
        out = {name: str(c) for name, c in sorted(outs.items()) if c}
        if out:
            entries.append({"in": list(ins), "out": out})
    return {"arity": arity, "degree": degree, "entries": entries}


def tensor_json(order: int, table: dict) -> dict:
    entries = [
        {"factors": list(factors), "coeff": str(c)}
        for factors, c in sorted(table.items())
        if c
    ]
    return {"order": order, "entries": entries}


def unit(p: int, q: int) -> str:
    return f"e{p}^{q}"


def end_basis(dim: int) -> list[str]:
    return [unit(p, q) for p in range(1, dim + 1) for q in range(1, dim + 1)]


def scaled_identity(names: list[str], scale: Fraction) -> dict:
    return {(n,): {n: scale} for n in names}


def nilpotent_tensor(p: int, q: int, c: Fraction) -> dict:
    return {(unit(p, q), unit(p, q)): c}


def tensor_operator(table: dict) -> dict:
    """The operator x -> sum c a x b of an order-2 tensor over End(V)."""
    op: dict = {}
    for (a, b), c in table.items():
        i, j = a[1:].split("^")
        k, l = b[1:].split("^")
        row = op.setdefault((unit(int(j), int(k)),), {})
        row[unit(int(i), int(l))] = row.get(unit(int(i), int(l)), 0) + c
    return op


def diagonal_product(dim: int) -> dict:
    return {(f"v{k}", f"v{k}"): {f"v{k}": Fraction(1)} for k in range(1, dim + 1)}


def projection(i: int, scale: Fraction) -> dict:
    return {(f"v{i}",): {f"v{i}": scale}}


# -- job helpers ------------------------------------------------------------------


class Session:
    """Writes input files into ``workdir`` and collects jobs."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.jobs: list[dict] = []

    def scalar(self) -> Fraction:
        return self.rng.choice(SCALARS)

    def pair(self, dim: int) -> tuple[int, int]:
        p, q = self.rng.sample(range(1, dim + 1), 2)
        return p, q

    def file(self, payload: dict) -> str:
        path = self.workdir / f"input-{len(self.jobs):03d}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def add(self, label: str, argv: list[str], exit_code: int, **expect) -> None:
        self.jobs.append({"label": label, "argv": argv, "expect": {"exit": exit_code, **expect}})


def _verdict(ok: bool) -> int:
    return 0 if ok else 1


# -- workloads ----------------------------------------------------------------------


def operad_d2(s: Session, small: bool) -> None:
    bounds = [("mrs", 2), ("xyz", 3), ("mrs", 3)] if small else [
        ("mrs", 4), ("xyz", 5), ("mrs", 5)
    ]
    for presentation, arity in bounds:
        s.add(
            f"verify d-squared {presentation} {arity}",
            ["verify", "d-squared", "--presentation", presentation, "--max-arity", str(arity)],
            0,
            fields={"ok": True, "presentation": presentation, "max_arity": arity},
            # m (or x) from arity 2, both operator families from arity 1
            lengths={"results": 3 * arity - 1},
        )


# monomials of positive degree in each bound, independent of the seed
HOMOTOPY_CHECKED = {(2, 2): 14, (2, 3): 62, (3, 2): 57, (3, 3): 385, (2, 5): 702, (4, 3): 1313}


def operad_homotopy(s: Session, small: bool) -> None:
    bounds = [(2, 2), (2, 3), (3, 2)] if small else [(3, 3), (2, 5), (4, 3)]
    for arity, weight in bounds:
        s.add(
            f"verify homotopy {arity} {weight}",
            ["verify", "homotopy", "--max-arity", str(arity), "--max-weight", str(weight)],
            0,
            fields={"ok": True, "checked": HOMOTOPY_CHECKED[arity, weight]},
            lengths={"failures": 0},
        )


# V = (v1: -1, v2: 0, v3: 0) up to arity 3, without the arity-3 algebra component
MC_DENSE = {"degrees": [-1, 0, 0], "max_arity": 3, "residual_components": 14}
MC_SMALL = {"degrees": [-1, 0], "max_arity": 2, "residual_components": 10}


def apply_unary(table: dict, vector: dict) -> dict:
    """The image of a vector under an arity-1 map table, without zero entries."""
    image: dict = {}
    for name, c in vector.items():
        for out, d in table.get((name,), {}).items():
            image[out] = image.get(out, 0) + c * d
    return {name: c for name, c in image.items() if c}


def commutes(first: dict, second: dict, basis) -> bool:
    """Whether two arity-1 map tables commute on every basis vector."""
    for name in basis:
        vector = {name: 1}
        if apply_unary(first, apply_unary(second, vector)) != apply_unary(
            second, apply_unary(first, vector)
        ):
            return False
    return True


def dense_cochain(rng: random.Random, degrees: list[int], max_arity: int) -> dict:
    """A degree -1 cochain with every admissible entry filled.

    Stored maps act on the suspension (degrees shifted up by one); algebra
    maps have map degree -1 and operator maps map degree 0.  Which output
    each input goes to is fixed, the k-th input to the (k mod n)-th of the n
    outputs of its degree, and the seed draws only the coefficients: the
    output pattern sets how many terms every bracket has, and with it the
    work of a run, which should not change from seed to seed.

    The arity-1 residual component of an operator T is the commutator
    T m1 - m1 T with the arity-1 algebra map m1 (the only bracket with an
    arity-1 output is l2(m1, T1)), so an arity-1 operator that commutes with
    m1, such as a multiple of the identity, is drawn again.  Otherwise a
    seed could drop that component and change the residual's shape.
    """
    suspended = {f"v{k + 1}": d + 1 for k, d in enumerate(degrees)}
    parts = []
    tables = {}
    for tag in ("alg", "rbo_r", "rbo_s"):
        for arity in range(1, min(max_arity, 2 if tag == "alg" else 3) + 1):
            degree = -1 if tag == "alg" else 0
            while True:
                table = {}
                for k, ins in enumerate(itertools.product(suspended, repeat=arity)):
                    target = sum(suspended[n] for n in ins) + degree
                    outs = [n for n in suspended if suspended[n] == target]
                    if outs:
                        table[ins] = {outs[k % len(outs)]: rng.choice(SCALARS)}
                if tag == "alg" or arity > 1 or not commutes(table, tables["alg", 1], suspended):
                    break
            tables[tag, arity] = table
            parts.append({"tag": tag, "map": map_json(arity, degree, table)})
    return {
        "space": space_json(degrees),
        "degree": -1,
        "truncation": max_arity,
        "parts": parts,
    }


def mc_dense(s: Session, small: bool) -> None:
    spec = MC_SMALL if small else MC_DENSE
    cochain = dense_cochain(s.rng, spec["degrees"], spec["max_arity"])
    s.add(
        "check mc dense cochain",
        ["check", "mc", s.file(cochain)],
        1,
        fields={
            "is_mc": False,
            "source": "cochain",
            "degree": -1,
            "truncation": cochain["truncation"],
            "twist_checked": 0,
        },
        lengths={"residual_components": spec["residual_components"]},
    )


def _rbs_jobs(s: Session) -> None:
    def add(label, dim, R, S, ok):
        names = end_basis(dim)
        payload = {
            "space": space_json([0] * dim),
            "R": map_json(1, 0, R(names)),
            "S": map_json(1, 0, S(names)),
        }
        s.add(
            f"check rbs {label} dim {dim}",
            ["check", "rbs", s.file(payload)],
            _verdict(ok),
            fields={"ok": ok, "module_dimension": dim, "algebra_dimension": dim * dim},
        )

    zero = lambda names: {}  # noqa: E731
    add("zero", 2, zero, zero, True)
    lam = s.scalar()
    add("identity", 3, lambda names: scaled_identity(names, lam), zero, True)
    for dim in (2, 3):
        p, q = s.pair(dim)
        c, d = s.scalar(), s.scalar()
        add(
            "nilpotent",
            dim,
            lambda names: tensor_operator(nilpotent_tensor(p, q, c)),
            lambda names: tensor_operator(nilpotent_tensor(p, q, d)),
            True,
        )
    for dim in (2, 3):
        lam, mu = s.scalar(), s.scalar()
        add(
            "two identities",
            dim,
            lambda names: scaled_identity(names, lam),
            lambda names: scaled_identity(names, mu),
            False,
        )


def _ybp_jobs(s: Session) -> None:
    def add(label, dim, r, t, ok):
        payload = {"space": space_json([0] * dim), "r": tensor_json(2, r), "s": tensor_json(2, t)}
        s.add(
            f"check ybp {label} dim {dim}",
            ["check", "ybp", s.file(payload)],
            _verdict(ok),
            fields={"ok": ok, "module_dimension": dim},
        )

    for dim in (2, 3):
        p, q = s.pair(dim)
        add("nilpotent", dim, nilpotent_tensor(p, q, s.scalar()), nilpotent_tensor(p, q, s.scalar()), True)
    for dim in (2, 3):
        i = s.rng.randint(1, dim)
        add("idempotent", dim, nilpotent_tensor(i, i, s.scalar()), nilpotent_tensor(i, i, s.scalar()), False)


def _convert_jobs(s: Session) -> None:
    for dim in (2, 3):
        names = end_basis(dim)
        space = space_json([0] * dim)
        r, t = (
            {pair: s.scalar() for pair in itertools.product(names, repeat=2)}
            for _ in range(2)
        )
        tensors = {"space": space, "r": tensor_json(2, r), "s": tensor_json(2, t)}
        operators = {
            "space": space,
            "R": map_json(1, 0, tensor_operator(r)),
            "S": map_json(1, 0, tensor_operator(t)),
        }
        s.add(
            f"convert ybp-to-rbs dim {dim}",
            ["convert", "ybp-to-rbs", s.file(tensors)],
            0,
            report=operators,
        )
        s.add(
            f"convert rbs-to-ybp dim {dim}",
            ["convert", "rbs-to-ybp", s.file(operators)],
            0,
            report=tensors,
        )


def _diagonal_operators(s: Session, dim: int, ok: bool) -> tuple[dict, dict]:
    i, j = s.pair(dim)
    return projection(i, s.scalar()), projection(j if ok else i, s.scalar())


def _hrbs_jobs(s: Session) -> None:
    for dim, ok in ((2, True), (3, True), (2, False)):
        R, S = _diagonal_operators(s, dim, ok)
        payload = {
            "space": space_json([0] * dim),
            "truncation": 3,
            "m": {"2": map_json(2, 0, diagonal_product(dim))},
            "r": {"1": map_json(1, 0, R)},
            "s": {"1": map_json(1, 0, S)},
        }
        s.add(
            f"check hrbs diagonal dim {dim}",
            ["check", "hrbs", s.file(payload)],
            _verdict(ok),
            fields={"ok": ok, "max_arity": 3, "truncation": 3},
            lengths={"results": 9},
        )


def _aybe_jobs(s: Session) -> None:
    def add(label, degrees, truncation, r, t, ok):
        payload = {"space": space_json(degrees), "truncation": truncation, "r": r, "s": t}
        s.add(
            f"check aybe-infinity {label}",
            ["check", "aybe-infinity", s.file(payload)],
            _verdict(ok),
            fields={"ok": ok, "truncation": truncation, "max_n": truncation - 1},
            lengths={"results": truncation},
        )

    # graded V = (v1: 0, v2: 1): d = c e1^2 squares to zero
    d = {"1": tensor_json(1, {(unit(1, 2),): s.scalar()})}
    add("differential", [0, 1], 2, d, d, True)
    bad = dict(d, **{"2": tensor_json(2, nilpotent_tensor(1, 1, s.scalar()))})
    add("bad order-2 member", [0, 1], 2, bad, d, False)
    # ungraded V: at index 2 the classical Yang-Baxter equations
    p, q = s.pair(2)
    add(
        "nilpotent pair",
        [0, 0],
        3,
        {"2": tensor_json(2, nilpotent_tensor(p, q, s.scalar()))},
        {"2": tensor_json(2, nilpotent_tensor(p, q, s.scalar()))},
        True,
    )
    i = s.rng.randint(1, 2)
    add(
        "idempotent pair",
        [0, 0],
        3,
        {"2": tensor_json(2, nilpotent_tensor(i, i, s.scalar()))},
        {"2": tensor_json(2, nilpotent_tensor(i, i, s.scalar()))},
        False,
    )


def _mc_jobs(s: Session) -> None:
    dim = 2
    cases = [("diagonal system", *_diagonal_operators(s, dim, True), True)]
    cases.append(("diagonal non-system", *_diagonal_operators(s, dim, False), False))
    names = [f"v{k}" for k in range(1, dim + 1)]
    cases.append(
        (
            "two identities",
            scaled_identity(names, s.scalar()),
            scaled_identity(names, s.scalar()),
            False,
        )
    )
    for label, R, S, ok in cases:
        payload = {
            "space": space_json([0] * dim),
            "product": map_json(2, 0, diagonal_product(dim)),
            "R": map_json(1, 0, R),
            "S": map_json(1, 0, S),
        }
        s.add(
            f"check mc {label}",
            ["check", "mc", s.file(payload)],
            _verdict(ok),
            fields={
                "ok": ok,
                "is_mc": ok,
                "source": "classical",
                "twist_square_zero": True if ok else None,
                # one basis cochain per column, input tuple and output, arity <= 2
                "twist_checked": 3 * (dim + dim**2) * dim if ok else 0,
            },
        )


def file_checks(s: Session, small: bool) -> None:
    for add in (_rbs_jobs, _ybp_jobs, _convert_jobs, _hrbs_jobs, _aybe_jobs, _mc_jobs):
        add(s)
    # The sizes of the random trials set this job's work, so their seed is
    # fixed: the workload seed would move the run time by a few percent.
    s.add(
        "verify linfinity",
        ["verify", "linfinity", "--dim", "2", "--trunc", "3", "--trials", "24", "--seed", "1"],
        0,
        fields={"ok": True, "trials": 24, "seed": 1},
    )


JOB_LISTS = {
    "operad-d2": operad_d2,
    "operad-homotopy": operad_homotopy,
    "mc-dense": mc_dense,
    "file-checks": file_checks,
}


def build(name: str, seed: int, workdir: Path, small: bool = False) -> list[dict]:
    """The job list of one workload; the same seed gives the same jobs.

    The seed draws the coefficients and indices of the inputs, never the
    kinds or the order of the jobs, so seeds differ only in the numbers the
    jobs work on.
    """
    session = Session(random.Random(f"{name}:{seed}"), workdir)
    JOB_LISTS[name](session, small)
    return session.jobs
