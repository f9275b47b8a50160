"""Seeded job mixes, one per workload.

A workload's mix is a list of jobs that one pass of the benchmark runs in
order.  The workload fixes the size of every job; the seed draws what leaves
the size alone (generator entries, polynomial coefficients and color swaps,
lemma seeds, Hessian couplings) and the job order.  So runs on different
seeds cost the same, and each percentile of the job times stays inside one
size class whatever the seed.

Every job lies inside the derivable range the README documents: base-point
tables reach hbar^2 only for p, q <= 2, and every generator matrix is
nonzero with the parity its level requires (symmetric for odd levels,
skew-symmetric for even ones), so even levels appear only with two or more
colors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Small nonzero coefficients; 1/2 keeps a denominator in the arithmetic.
VALUES = (1, 2, 3, -1, -2, -3, Fraction(1, 2), Fraction(-1, 2))


@dataclass(frozen=True)
class Job:
    """One user call: `jethier` CLI argv, or a library call described by `spec`.

    `argv` may hold the placeholder "{generator}", replaced at run time by
    the path of a file holding `generator` as JSON.
    """

    size: str
    argv: tuple = ()
    generator: dict | None = None
    spec: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "cli" if self.argv else "lib"

    @property
    def key(self) -> str:
        """Canonical description, independent of file paths; keys the goldens."""
        if self.argv:
            text = " ".join(self.argv)
            if self.generator is not None:
                text += " " + canonical(self.generator)
            return text
        return canonical(self.spec)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _num(x) -> str:
    return str(Fraction(x))


def _matrix(rng: random.Random, dim: int, level: int) -> list:
    """Dense random matrix, symmetric for odd level, skew for even level.

    Every entry the parity allows is nonzero: how many entries are nonzero
    changes the cost of a deformation several times over, so the seed draws
    only their values.
    """
    sign = 1 if level % 2 else -1
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i if sign == 1 else i + 1, dim):
            v = Fraction(rng.choice(VALUES))
            m[i][j], m[j][i] = v, sign * v
    return [[_num(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# deform-bracket: the paper's central certified computation
# ---------------------------------------------------------------------------

def deform_bracket(seed: int) -> list[Job]:
    """36 (kind, level, tensor, pmax, hbar) jobs with seeded dense matrices.

    Upper generators run at levels 1-3, `--pmax` 0-2 and hbar 1, plus level 1
    at hbar^2 with `--pmax` 0; lower ones at level 1.  Five classes repeat
    with new values.  Five jobs cost about the same (90-95 ms), fifteen cost
    less and sixteen more, so the median lies inside those five.  Next below
    the two heaviest jobs come three of about equal cost, and p90 lies among
    them.
    """
    rng = random.Random(f"deform-bracket/{seed}")
    classes = []
    for tensor in (1, 2, 3):
        classes += [("r", level, tensor, pmax, 1) for level in (1, 2, 3)
                    for pmax in (0, 1, 2) if level % 2 or tensor >= 2]
        classes += [("r", 1, tensor, 0, 2), ("s", 1, tensor, 2, 1)]
    classes += [("s", 1, 2, 0, 2), ("r", 2, 2, 2, 1), ("r", 3, 2, 1, 1),
                ("r", 1, 2, 2, 1), ("r", 3, 3, 0, 1), ("r", 3, 3, 2, 1)]
    jobs = []
    for kind, level, tensor, pmax, hbar in classes:
        gen = {"kind": kind, "level": level,
               "matrix": _matrix(rng, tensor, level)}
        argv = ("deform", "bracket", "--generator", "{generator}",
                "--tensor", str(tensor), "--pmax", str(pmax), "--hbar", str(hbar))
        jobs.append(Job(f"{kind}{level}-t{tensor}-p{pmax}-h{hbar}", argv, gen))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# miura-conjugate: substitution and composition on large products
# ---------------------------------------------------------------------------

# Shapes of g_a in the change w_a -> w_a + hbar dx(g_a): one monomial list per
# color, each monomial a list of (color, order, exponent).  The shape fixes
# the size class; the seed draws the coefficients and may swap the colors.
SHAPES = {
    "1c-w0^2": [[[(1, 0, 2)]]],
    "1c-w0^3": [[[(1, 0, 3)]]],
    "1c-w0w1": [[[(1, 0, 1), (1, 1, 1)]]],
    "1c-w0^2+w1^2": [[[(1, 0, 2)], [(1, 1, 2)]]],
    "1c-w0^3+w0w1": [[[(1, 0, 3)], [(1, 0, 1), (1, 1, 1)]]],
    "2c-diag-w0^2": [[[(1, 0, 2)]], [[(2, 0, 2)]]],
    "2c-diag-w0w1": [[[(1, 0, 1), (1, 1, 1)]], [[(2, 0, 1), (2, 1, 1)]]],
    "2c-cross": [[[(1, 0, 1), (2, 0, 1)]], [[(2, 0, 2)]]],
    "2c-cross-both": [[[(1, 0, 1), (2, 0, 1)]], [[(1, 0, 1), (2, 0, 1)]]],
    "2c-2term-o0": [[[(1, 0, 2)], [(1, 0, 1), (2, 0, 1)]],
                    [[(2, 0, 2)], [(1, 0, 2)]]],
    "2c-cross-w1": [[[(1, 0, 1), (2, 1, 1)]], [[(2, 0, 1), (1, 1, 1)]]],
    "2c-2term-cube": [[[(1, 0, 3)], [(1, 0, 1), (2, 0, 2)]],
                      [[(2, 0, 3)], [(1, 0, 2), (2, 0, 1)]]],
    "2c-2term-o1b": [[[(1, 1, 1), (2, 0, 1)], [(1, 0, 2)]],
                     [[(2, 0, 2)], [(1, 0, 1), (2, 0, 1)]]],
    "2c-2term-o1": [[[(1, 0, 1), (2, 1, 1)], [(2, 0, 2)]],
                    [[(2, 0, 1), (1, 1, 1)], [(1, 0, 2)]]],
}
# Jobs a pass of each shape, cheapest first (5 ms to 330 ms each on a 2.1 GHz
# Xeon core).  With the four quasi-Miura jobs that makes 31: the median falls
# in the middle of the six 25-35 ms jobs of ranks 13-18, and p90 in the
# middle of the five heaviest, which are the coupled two-color class of the
# tests.
COPIES = {
    "1c-w0^2": 2, "1c-w0^3": 2, "2c-diag-w0^2": 3, "1c-w0w1": 3,
    "2c-cross": 2, "2c-diag-w0w1": 2, "1c-w0^2+w1^2": 2,
    "1c-w0^3+w0w1": 1, "2c-cross-both": 1, "2c-2term-o0": 1,
    "2c-cross-w1": 1, "2c-2term-cube": 1, "2c-2term-o1b": 1, "2c-2term-o1": 5,
}


def _miura_job(rng: random.Random, size: str, shape: list) -> Job:
    dim = len(shape)
    swap = dim == 2 and rng.random() < 0.5
    g = []
    for monos in shape:
        terms = []
        for mono in monos:
            factors = sorted(((3 - a if swap else a), n, e) for a, n, e in mono)
            terms.append([[list(f) for f in factors], _num(rng.choice(VALUES))])
        g.append(terms)
    if swap:
        g.reverse()
    return Job(size, spec={"change": "random", "colors": dim, "hbar": 2,
                           "g": g})


def miura_conjugate(seed: int) -> list[Job]:
    """Random Miura changes at hbar^2 plus the quasi-Miura transform."""
    rng = random.Random(f"miura-conjugate/{seed}")
    jobs = [_miura_job(rng, name, SHAPES[name])
            for name, copies in COPIES.items() for _ in range(copies)]
    for direction in ("forward", "inverse"):
        for hbar in (1, 2):
            jobs.append(Job(f"quasi-h{hbar}",
                            spec={"change": "quasi", "direction": direction,
                                  "hbar": hbar}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify-suites: the named suites, small operands
# ---------------------------------------------------------------------------

def verify_suites(seed: int) -> list[Job]:
    """`verify <suite>` for every named suite with seeded flags."""
    rng = random.Random(f"verify-suites/{seed}")

    def verify(size, suite, *flags):
        return Job(size, ("verify", suite) + tuple(str(f) for f in flags))

    jobs = []
    # One lemma draw costs 0.7 ms at the median but 230 ms at p99, and the
    # top 5% of draws hold half the time; more than a few draws per pass
    # would make the cost of the mix depend on the seed.
    for _ in range(2):
        jobs.append(verify("lemmas", "lemmas", "--seed", rng.randrange(10**6),
                           "--count", 1))
    for pmax in range(2, 6):
        jobs.append(verify("commutation", "commutation", "--pmax", pmax))
    jobs.append(verify("homogeneity", "homogeneity"))
    for hbar in (1, 2):
        for pmax in (1, 2, 3):
            jobs.append(verify("defining-equation", "defining-equation",
                               "--pmax", pmax, "--hbar", hbar))
    for pmax in (2, 3, 4):
        jobs.append(verify("uniqueness", "uniqueness", "--pmax", pmax))
    # Of the 25 jobs, eleven cost less than the three `uniqueness` jobs
    # (about equal to each other) and eleven more, so the median falls in
    # the middle of that class; the six `all` jobs hold p90 the same way.
    for _ in range(3):
        jobs.append(verify("quasimiura", "quasimiura"))
    for _ in range(6):
        jobs.append(verify("all", "all", "--seed", rng.randrange(10**6),
                           "--count", 1))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# tables: output-heavy table generation and dumps
# ---------------------------------------------------------------------------

def _hessian(dim: int, coupling=None) -> str:
    """Integrable Hessian: decoupled copies, or two colors coupled linearly."""
    if coupling is not None:
        mix = f"({_num(coupling)})*(v1-v2)"
        rows = [[f"v1-{mix}", mix], [mix, f"v2-{mix}"]]
    else:
        rows = [[f"v{i + 1}" if i == j else "0" for j in range(dim)]
                for i in range(dim)]
    return json.dumps(rows, separators=(",", ":"))


def tables(seed: int) -> list[Job]:
    """`generate kdv` over sizes, tensors and hbar orders, `generate principal`
    and every `dump` target.

    Every table size and output format appears in every pass, so the seed
    draws only what leaves the cost alone: the Hessian coupling and the
    order.
    """
    rng = random.Random(f"tables/{seed}")
    jobs = []
    for hbar in (0, 1):
        for tensor in (1, 2, 3):
            for pmax in range(3, 11):
                jobs.append(Job(f"kdv-h{hbar}",
                                ("generate", "kdv", "--pmax", str(pmax),
                                 "--qmax", str(pmax), "--hbar", str(hbar),
                                 "--tensor", str(tensor))))
    for tensor in (1, 2, 3):
        jobs.append(Job("kdv-h2", ("generate", "kdv", "--pmax", "2",
                                   "--qmax", "2", "--hbar", "2",
                                   "--tensor", str(tensor))))
    for dim, pmax, qmax, coupling in ((1, 6, 3, None), (1, 10, 10, None),
                                      (2, 5, 2, None), (2, 8, 4, None),
                                      (2, 4, 2, rng.choice(VALUES)),
                                      (2, 3, 3, rng.choice(VALUES)),
                                      (3, 4, 2, None), (3, 6, 3, None)):
        jobs.append(Job("principal", ("generate", "principal",
                                      "--dim", str(dim),
                                      "--hessian", _hessian(dim, coupling),
                                      "--pmax", str(pmax),
                                      "--qmax", str(qmax))))
    for fmt in ("json", "text"):
        for what in ("flows", "hamiltonians", "quasi-miura"):
            for hbar in (1, 2):
                jobs.append(Job("dump", ("dump", what, "--hbar", str(hbar),
                                         "--format", fmt)))
        for pmax, hbar in ((2, 2), (6, 1)):
            jobs.append(Job("dump", ("dump", "kdv-table", "--pmax", str(pmax),
                                     "--qmax", str(pmax), "--hbar", str(hbar),
                                     "--format", fmt)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "deform-bracket": deform_bracket,
    "miura-conjugate": miura_conjugate,
    "verify-suites": verify_suites,
    "tables": tables,
}


def mix(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)
