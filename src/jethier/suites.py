"""Named verification suites: seeded identity checks over the base-point data.

Each suite returns a list of CheckResult records; a suite passes iff every
check does.  The same functions back the command-line `verify` subcommand
and the acceptance tests, so both always agree on what was verified; the
report that `verify` prints is the command line's (`cli.cmd_verify`).

`run_suite` makes one `BasePoint` per call and hands it to every suite it
runs, so the suites of `verify all` share the KdV tables, the genus-0 table
and the quasi-Miura change instead of each building its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bracket import (
    PoissonOp,
    bracket_deformation,
    check_operator_homogeneity,
    check_series_homogeneity,
    defining_equation_residuals,
    dx_commutator_residual,
    euler_commutator_residual,
    r_deform_bracket,
    uniqueness_residuals,
)
from .diffop import DiffOperator, MiuraChange, conjugate_by_miura
from .genus0 import Genus0Data, check_commutation, trr_extend
from .givental import GiventalGen, OmegaTable, entry_deformation, triple_omega
from .jetcalc import HbarSeries, JetPoly, random_jetpoly
from .kdvbase import OutOfDerivableRange, kdv_omega_table, quasi_miura


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


class BasePoint:
    """The base-point data of one `run_suite` call, each object built on its
    first use and kept until the call returns.

    Its bounds cover every suite at `pmax`: the KdV tables reach
    max(5, pmax + 4) at hbar^0 and hbar^1 (homogeneity reads p, q <= 5, the
    level-3 defining equation p + 4) and 2 at hbar^2, the edge of the
    derivable set; their entries are built on first read, so a larger bound
    costs only route checks.  The genus-0 table reaches max(pmax, 2) + 1:
    the perturbed operator of `suite_uniqueness` is checked at p <= 2,
    which reads (1, 3; 1, 0).
    """

    __slots__ = ("pmax", "_tables", "_genus0", "_miura")

    def __init__(self, pmax: int):
        self.pmax = pmax
        self._tables: dict[int, OmegaTable] = {}
        self._genus0: OmegaTable | None = None
        self._miura: MiuraChange | None = None

    def table(self, trunc: int) -> OmegaTable:
        """The one-color KdV table at hbar^trunc, trunc <= 2."""
        got = self._tables.get(trunc)
        if got is None:
            bound = 2 if trunc == 2 else max(5, self.pmax + 4)
            got = self._tables[trunc] = kdv_omega_table(bound, bound, trunc)
        return got

    def genus0(self) -> OmegaTable:
        """The dispersionless table of the one-color cubic point."""
        if self._genus0 is None:
            data = Genus0Data(1, {(1, 1): JetPoly.var(1, 0)})
            self._genus0 = trr_extend(data, max(self.pmax, 2) + 1, self.pmax)
        return self._genus0

    def miura(self) -> MiuraChange:
        """The forward quasi-Miura change through hbar^2; its `inverse()`
        reuses the inverse images this change solves for once."""
        if self._miura is None:
            self._miura = quasi_miura("forward", 2)
        return self._miura


def suite_lemmas(seed: int, count: int) -> list[CheckResult]:
    """The two operator-commutation identities on seeded random polynomials."""
    rng = random.Random(seed)
    bad_dx = 0
    for _ in range(count):
        b = random_jetpoly(rng)
        f = random_jetpoly(rng)
        zeta = rng.randint(1, 3)
        if not dx_commutator_residual(b, zeta, f).is_zero():
            bad_dx += 1
    out = [CheckResult("total-derivative-commutes-with-evolution",
                       bad_dx == 0, f"{count - bad_dx}/{count} zero residuals")]
    bad_mixed = 0
    for _ in range(count):
        a = random_jetpoly(rng, n_terms=2)
        b = random_jetpoly(rng, n_terms=2)
        f = random_jetpoly(rng, n_terms=2)
        if not euler_commutator_residual(
                a, rng.randint(0, 3), rng.randint(1, 3),
                b, rng.randint(1, 3), f).is_zero():
            bad_mixed += 1
    out.append(CheckResult("euler-operator-commutator-expansion",
                           bad_mixed == 0, f"{count - bad_mixed}/{count} zero residuals"))
    return out


def suite_commutation(base: BasePoint) -> list[CheckResult]:
    """Dispersionless commutation residuals at the one-color cubic point."""
    table, pmax = base.genus0(), base.pmax
    bad = []
    for p in range(pmax + 1):
        for q in range(pmax + 1):
            if not check_commutation(table, 1, p, 1, q).is_zero():
                bad.append((p, q))
    return [CheckResult("hamiltonian-commutation-residuals", not bad,
                        f"all ({pmax + 1}x{pmax + 1}) residuals zero" if not bad
                        else f"nonzero at {bad}")]


def suite_quasimiura(base: BasePoint) -> list[CheckResult]:
    """Consequences of the rational coordinate change at the base point."""
    out = []
    m = base.miura()
    d = DiffOperator.dx_op(1, 2)
    conj = conjugate_by_miura(d, m)
    out.append(CheckResult("bracket-invariance-under-coordinate-change",
                           conj == d, "conjugate of d equals d through hbar^2"))
    riemann = [HbarSeries.of(JetPoly.var(1, 0) * JetPoly.var(1, 1), 2)]
    pushed = m.push_flow(riemann)[0]
    out.append(CheckResult("dispersionless-flow-maps-to-dispersive-flow",
                           pushed == base.table(2).entry(1, 0, 1, 1).dx(),
                           "rational terms cancel through hbar^2"))
    roundtrip = m.express_in_target(m.forward[0])
    out.append(CheckResult("forward-inverse-roundtrip",
                           roundtrip == HbarSeries.var(1, 0, 2), ""))
    return out


def suite_homogeneity(base: BasePoint) -> list[CheckResult]:
    """Degree-doubling grading of tables, deformations, and the operator."""
    out = []
    table = base.table(1)
    # the p, q <= 5 corner of a table that may reach further
    entries = {(p, q): table.entry(1, p, 1, q) for p in range(6) for q in range(6)}
    bad = [key for key, series in entries.items()
           if not check_series_homogeneity(series, 0).ok]
    out.append(CheckResult("table-entry-grading", not bad,
                           f"{len(entries)} entries at degree 2g"))
    table2 = base.table(2)
    bad2 = [key for key, series in table2.items()
            if not check_series_homogeneity(series, 0).ok]
    out.append(CheckResult("table-entry-grading-hbar2", not bad2, ""))
    gen = GiventalGen("r", 1, [[1]])
    deform = entry_deformation(table, gen)
    bad3 = [(p, q) for p in range(3) for q in range(3)
            if not check_series_homogeneity(deform(1, p, 1, q), 0).ok]
    out.append(CheckResult("deformed-entry-grading", not bad3, ""))
    dP = r_deform_bracket(table, PoissonOp.dx(1, 1), gen)
    out.append(CheckResult("deformed-operator-grading",
                           check_operator_homogeneity(dP).ok,
                           "order-k coefficient at hbar^g has degree 2g-k+1"))
    bad4 = []
    for k in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1)]:
        t = triple_omega(table, (1, k[0]), (1, k[1]), (1, k[2]))
        if not check_series_homogeneity(t, 1).ok:
            bad4.append(k)
    out.append(CheckResult("triple-correlator-grading", not bad4, "degree 2g+1"))
    return out


def suite_uniqueness(base: BasePoint) -> list[CheckResult]:
    """Only d solves the dispersionless defining relation."""
    out = []
    table0, pmax = base.genus0(), base.pmax
    ok = all(r.is_zero() for _, r in
             uniqueness_residuals(table0, DiffOperator.dx_op(1, 0), pmax))
    out.append(CheckResult("defining-relation-accepts-d", ok, f"p <= {pmax}"))
    scaled = DiffOperator.dx_op(1, 0, scale=2)
    ok = any(not r.is_zero() for _, r in uniqueness_residuals(table0, scaled, 0))
    out.append(CheckResult("defining-relation-rejects-scaled-d", ok, ""))
    pert = DiffOperator(1, 0, {(1, 1): {1: HbarSeries.const(1, 0),
                                        2: HbarSeries.of(JetPoly.var(1, 1), 0)}})
    ok = any(not r.is_zero() for _, r in uniqueness_residuals(table0, pert, 2))
    out.append(CheckResult("defining-relation-rejects-perturbed-d", ok, ""))
    conj = conjugate_by_miura(DiffOperator.dx_op(1, 2), base.miura().inverse())
    out.append(CheckResult("inverse-change-keeps-zero-order0",
                           conj.coeff(1, 1, 0).is_zero(),
                           "no constant term through hbar^2"))
    return out


def _defining_equation_ok(table: OmegaTable, pop: PoissonOp, gen: GiventalGen,
                          pmax: int) -> bool:
    """Whether every defining-equation residual of `gen`, p <= pmax, is zero."""
    dP = bracket_deformation(table, pop, gen)
    return all(res.is_zero() for _, res in
               defining_equation_residuals(table, pop, gen, dP, pmax))


def suite_defining_equation(base: BasePoint, trunc: int) -> list[CheckResult]:
    """Linearized defining-equation residuals for both generator kinds, trunc <= 2
    (`run_suite` refuses more)."""
    out = []
    pmax = base.pmax
    table = base.table(min(trunc, 1))  # level 3 reads entries up to index pmax + 1 + 3
    pop = PoissonOp.dx(1, table.trunc)
    for level in (1, 2, 3):
        matrix = [[0]] if level % 2 == 0 else [[1]]
        for kind, name in (("r", "upper"), ("s", "lower")):
            ok = _defining_equation_ok(table, pop, GiventalGen(kind, level, matrix), pmax)
            out.append(CheckResult(f"{name}-bracket-defining-equation-level-{level}",
                                   ok, f"p <= {pmax}, hbar^{table.trunc}"))
    if trunc >= 2:
        ok = _defining_equation_ok(base.table(2), PoissonOp.dx(1, 2),
                                   GiventalGen("r", 1, [[1]]), 0)
        out.append(CheckResult("upper-bracket-defining-equation-hbar2",
                               ok, "level 1, p = 0, paper-sourced entries"))
    return out


SUITES = {
    "lemmas": lambda base, args: suite_lemmas(args["seed"], args["count"]),
    "commutation": lambda base, args: suite_commutation(base),
    "quasimiura": lambda base, args: suite_quasimiura(base),
    "homogeneity": lambda base, args: suite_homogeneity(base),
    "uniqueness": lambda base, args: suite_uniqueness(base),
    "defining-equation": lambda base, args: suite_defining_equation(base, args["hbar"]),
}


def run_suite(name: str, **args) -> list[CheckResult]:
    """`args` holds every flag of `verify`, with the command line's defaults."""
    # refused before any suite runs, so "all" fails as fast as the suite itself
    if name in ("all", "defining-equation") and args["hbar"] > 2:
        raise OutOfDerivableRange("the defining equation is certified through hbar^2 only")
    base = BasePoint(args["pmax"])
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](base, args))
        return out
    return SUITES[name](base, args)
