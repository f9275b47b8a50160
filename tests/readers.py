"""Readers for the canonical JSON forms the package writes.

The package only writes these forms: the `*_to_obj` functions give them as
plain trees, and `jetcalc.to_json` writes them straight from the values, as
the tables of `givental.table_to_obj` hold them.  The round-trip tests read
them back with the functions here, to check that what is written determines
the value.  `hbar_shift` is the coefficient shift the test oracles share, and
`kdv_flows` the hand-typed KdV flows they compare the generated ones with.
"""

from fractions import Fraction

from jethier.diffop import DiffOperator
from jethier.givental import OmegaTable
from jethier.jetcalc import HbarSeries, JetPoly, rat


def jetpoly_from_obj(obj) -> JetPoly:
    terms = {}
    for item in obj:
        mono = tuple(tuple(int(x) for x in f) for f in item["mono"])
        terms[mono] = terms.get(mono, Fraction(0)) + rat(item["coeff"])
    return JetPoly(terms)


def series_from_obj(obj: dict) -> HbarSeries:
    return HbarSeries(int(obj["trunc"]), [jetpoly_from_obj(c) for c in obj["coeffs"]])


def _index(key: str) -> tuple:
    return tuple(int(x) for x in key.split("."))


def table_from_obj(obj: dict) -> OmegaTable:
    entries = {_index(key): series_from_obj(val) for key, val in obj["entries"].items()}
    prov = {_index(key): tag for key, tag in obj.get("provenance", {}).items()}
    return OmegaTable(int(obj["dim"]), int(obj["pmax"]), int(obj["qmax"]),
                      int(obj["trunc"]), entries, prov)


def hbar_shift(s: HbarSeries, k: int = 1) -> HbarSeries:
    """hbar^k * s, k >= 0, at the truncation of s: the coefficients move up k
    orders and those beyond the truncation are dropped."""
    if k < 0:
        raise ValueError("hbar_shift needs k >= 0")
    return HbarSeries(s.trunc, [JetPoly.zero()] * k + list(s.coeffs))


def kdv_flows() -> list:
    """The KdV flows dw/dt_q, q = 0..2, typed by hand through hbar^2: the
    oracle of `dx` of the first-row entries (0;q) the package generates."""
    def w(n):
        return JetPoly.var(1, n)

    return [HbarSeries(2, [w(1)]),
            HbarSeries(2, [w(0) * w(1), w(3) / 12]),
            HbarSeries(2, [w(0) ** 2 * w(1) / 2, (2 * w(1) * w(2) + w(0) * w(3)) / 12,
                           w(5) / 240])]


def operator_from_obj(obj: dict) -> DiffOperator:
    entries = {}
    for item in obj["entries"]:
        key = (int(item["row"]), int(item["col"]))
        entries.setdefault(key, {})[int(item["order"])] = series_from_obj(item["coeff"])
    return DiffOperator(int(obj["rows"]), int(obj["trunc"]), entries)
