"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from jethier import cli, suites
from jethier.cli import InputError, main, parse_poly
from jethier.bracket import PoissonOp, defining_equation_residuals
from jethier.diffop import DiffOperator, MiuraChange
from jethier.givental import GiventalGen, OmegaTable, UpperDeformation, s_deform_omega
from jethier.genus0 import Genus0Data, trr_extend
from jethier.jetcalc import HbarSeries, JetPoly, random_jetpoly, render, to_json
from jethier.kdvbase import kdv_omega_table, tensor_power

V = JetPoly.var


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

def test_parse_poly_basic():
    assert parse_poly("v") == V(1, 0)
    assert parse_poly("v2") == V(2, 0)
    assert parse_poly("1/2*v^2 + 3") == V(1, 0) ** 2 / 2 + 3
    assert parse_poly("-(v1 - v2)^2") == -((V(1, 0) - V(2, 0)) ** 2)
    assert parse_poly("w3") == V(3, 0)


def test_parse_poly_rejects_garbage():
    for bad in ("v +", "2 ** v", "v^^2", "(v", "x", "3/", "v^(1/2)"):
        with pytest.raises(InputError):
            parse_poly(bad)


@pytest.mark.parametrize("text, want", [
    ("v^2/2", V(1, 0) ** 2 / 2),
    ("v1^3/6", V(1, 0) ** 3 / 6),
    ("(v1-v2)^2/2", (V(1, 0) - V(2, 0)) ** 2 / 2),
    ("v/2", V(1, 0) / 2),
    ("1 / 2", JetPoly.const(Fraction(1, 2))),
    (" -v^(2) / (1+1) ", -V(1, 0) ** 2 / 2),
])
def test_parse_poly_divides_after_a_power(text, want):
    assert parse_poly(text) == want


def test_parse_poly_large_exponent_only_scales_exponents():
    assert parse_poly("-(v1*v2^2)^1000") == -V(1, 0, 1000) * V(2, 0, 2000)
    for text in ("8^958628952", "(v+1)^65", "(2*v)^65"):  # 8^958628952 has 2.9e9 bits
        with pytest.raises(InputError, match="above 64"):
            parse_poly(text)
    assert parse_poly("(v+1)^64").num_terms() == 65


def test_parse_poly_counts_term_pairs_per_cell():
    # a power of a sum is counted by its last squaring, a product by |a|*|b|,
    # all of a cell's together: the second power below is refused unbuilt
    assert parse_poly("(v1+v2+v3)^64").num_terms() == 2145
    for text in ("(v1+v2+v3+v4)^64", "(v1+v2+v3)^60*(v1+v2+v3)^60"):
        with pytest.raises(InputError, match="term pairs"):
            parse_poly(text)


def test_parse_poly_long_flat_sum():
    # the walk follows a chain's left spine in a loop, not by recursion
    assert parse_poly(" + ".join(["v"] * 2000)) == V(1, 0) * 2000


def test_parse_poly_round_trips_rendered_polynomials():
    rng = random.Random(18)
    for _ in range(200):
        p = random_jetpoly(rng, colors=3, max_order=0, max_exp=4, coeff_bound=5,
                           n_terms=rng.randint(0, 5)) / rng.randint(1, 12)
        text = re.sub(r"w\[(\d+),0\]", r"v\1", render(p))
        assert parse_poly(text) == p, text


def test_parse_poly_fuzz_reads_or_raises_input_error():
    rng = random.Random(18)
    alphabet = "vw0123456789/^*+-() x."
    read = 0
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            assert type(parse_poly(text)) is JetPoly, text
            read += 1
        except InputError:
            pass
    assert read > 100  # the strings exercise the walk, not only the parser


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_kdv_contains_tabulated_entry(capsys):
    code, out = run(capsys, "generate", "kdv", "--pmax", "2", "--qmax", "2",
                    "--hbar", "2", "--format", "text")
    assert code == 0
    assert "1/6*w[1,0]^3 + hbar*(1/12*w[1,0]*w[1,2] + 1/24*w[1,1]^2)" \
           " + hbar^2*(1/240*w[1,4])" in out


def test_generate_kdv_text_builds_no_json_tree(capsys, monkeypatch):
    built = []
    table_to_obj = cli.table_to_obj
    monkeypatch.setattr(cli, "table_to_obj",
                        lambda table: built.append(table) or table_to_obj(table))
    code, _ = run(capsys, "generate", "kdv", "--pmax", "2", "--qmax", "2",
                  "--hbar", "1", "--format", "text")
    assert code == 0 and built == []
    code, _ = run(capsys, "generate", "kdv", "--pmax", "2", "--qmax", "2",
                  "--hbar", "1")
    assert code == 0 and len(built) == 1


def test_generate_kdv_checks_every_color(capsys, monkeypatch):
    # the self-check runs once per distinct entry object; a bad entry in the
    # last color of a tensor power alone is still caught
    real = cli.tensor_power

    def bad_tensor_power(table, dim):
        out = real(table, dim)
        entries = dict(out.items())
        entries[(dim, 1, dim, 2)] = HbarSeries.of(V(dim, 0) + V(dim, 1), table.trunc)
        return OmegaTable(dim, out.pmax, out.qmax, out.trunc, entries, out.provenance)

    monkeypatch.setattr(cli, "tensor_power", bad_tensor_power)
    code = main(["generate", "kdv", "--tensor", "3", "--pmax", "2", "--qmax", "2",
                 "--hbar", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "internal verification failed at entry (3, 1, 3, 2)\n"


def test_generate_principal_monomial_table(capsys):
    code, out = run(capsys, "generate", "principal", "--dim", "1",
                    "--hessian", '[["v"]]', "--pmax", "3", "--qmax", "0",
                    "--format", "text")
    assert code == 0
    assert "1.3.1.0: 1/24*w[1,0]^4" in out


def test_generate_tensor_block_diagonal(capsys):
    code, out = run(capsys, "generate", "kdv", "--tensor", "2", "--pmax", "1",
                    "--qmax", "1", "--hbar", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2
    assert obj["entries"]["1.0.2.0"]["coeffs"] == [[], []]
    assert obj["entries"]["2.0.2.0"]["coeffs"][0] == [
        {"coeff": "1", "mono": [[2, 0, 1]]}]


def test_generate_malformed_hessian_exit2(capsys):
    code, _ = run(capsys, "generate", "principal", "--dim", "1",
                  "--hessian", '[["v +"]]')
    assert code == 2
    code, _ = run(capsys, "generate", "principal", "--dim", "1",
                  "--hessian", '[["v^2"]]')
    assert code == 2  # unit normalization fails
    # a monomial's power scales its exponents: no 10^8 products before the check
    code = main(["generate", "principal", "--dim", "1", "--hessian", '[["v^100000000"]]',
                 "--pmax", "1", "--qmax", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "unit normalization fails" in captured.err


@pytest.mark.parametrize("sizes", [(), ("--pmax", "1"), ("--pmax", "0", "--qmax", "3")])
def test_generate_principal_small_pmax(capsys, sizes):
    # the self-check reads (1, q+1; ., 0), so it stops at q = pmax - 1
    code, out = run(capsys, "generate", "principal", "--dim", "1",
                    "--hessian", '[["v"]]', *sizes)
    assert code == 0
    assert json.loads(out)["entries"]["1.0.1.0"] == [
        {"coeff": "1", "mono": [[1, 0, 1]]}]


@pytest.mark.parametrize("hessian", [
    '[["' + "(" * 3000 + "v" + ")" * 3000 + '"]]',
    "[" * 5000 + "]" * 5000,
    "[[[1]]]",
    '[["v", "0"], ["0", "v2"]]',
    '{"v": "v"}',
    '[["1/0"]]',
    *(json.dumps([[cell]]) for cell in (
        "v\0", "-" * 100000 + "v", "+".join(["v"] * 5000), "(" * 300 + "v" + ")" * 300,
        "v**2", "0.5*v", "v/v", "v/0", "(v1+v2+v3+v4)^64", "(v1+v2+v3)^60*(v1+v2+v3)^60")),
], ids=["parens-overflow-parse_poly", "arrays-overflow-json", "cell-not-string",
        "2x2-for-dim-1", "object", "zero-denominator", "nul", "100000-minus",
        "5000-term-sum", "300-parens", "double-star", "float", "divide-by-variable",
        "divide-by-zero", "47905-term-power", "product-of-two-powers"])
def test_generate_principal_bad_hessian_exit2(capsys, hessian):
    code = main(["generate", "principal", "--dim", "1", "--hessian", hessian])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid Hessian")
    assert captured.err.count("\n") == 1


def test_generate_principal_coupled_point_read_as_written(capsys):
    # F = (v1^3 + v2^3)/6 - (v1 - v2)^4/24: the cells divide after a power
    cells = [["v1-(v1-v2)^2/2", "(v1-v2)^2/2"], ["(v1-v2)^2/2", "v2-(v1-v2)^2/2"]]
    code, out = run(capsys, "generate", "principal", "--dim", "2",
                    "--hessian", json.dumps(cells))
    assert code == 0
    v1, v2 = V(1, 0), V(2, 0)
    cross = (v1 - v2) ** 2 / 2
    hess = {(1, 1): v1 - cross, (1, 2): cross, (2, 1): cross, (2, 2): v2 - cross}
    table = trr_extend(Genus0Data(2, hess), 2, 2)
    want = {f"{a}.{p}.{b}.{q}": v.coeffs[0] for (a, p, b, q), v in table.items()}
    assert json.loads(out)["entries"] == json.loads(to_json(want))


def test_generate_out_of_range_exit2(capsys):
    code, _ = run(capsys, "generate", "kdv", "--pmax", "5", "--qmax", "5",
                  "--hbar", "2")
    assert code == 2


def test_generate_byte_determinism(capsys):
    _, first = run(capsys, "generate", "kdv", "--pmax", "2", "--qmax", "2")
    _, second = run(capsys, "generate", "kdv", "--pmax", "2", "--qmax", "2")
    assert first == second


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

def write_gen(tmp_path, obj):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_deform_bracket_level1(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "r", "level": 1, "matrix": [[1]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--pmax", "2", "--hbar", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert all(r["nonzero_monomials"] == 0 for r in obj["residuals"])
    assert obj["skew_ok"] and obj["order0_ok"] and obj["homogeneity_ok"]


def test_deform_omega_symmetric(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "r", "level": 1, "matrix": [[1]]})
    code, out = run(capsys, "deform", "omega", "--generator", path,
                    "--pmax", "1", "--qmax", "1", "--hbar", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["symmetric_ok"] and obj["homogeneity_ok"]


def test_deform_omega_computes_each_entry_once(tmp_path, capsys, monkeypatch):
    calls = []
    deform_entry = UpperDeformation.__call__

    def counted(self, *index):
        calls.append(index)
        return deform_entry(self, *index)

    monkeypatch.setattr(UpperDeformation, "__call__", counted)
    path = write_gen(tmp_path, {"kind": "r", "level": 1, "matrix": [[1]]})
    code, out = run(capsys, "deform", "omega", "--generator", path,
                    "--pmax", "2", "--qmax", "2", "--hbar", "1")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 9
    assert len(calls) == 9 and len(set(calls)) == 9


def test_deform_bracket_builds_one_upper_deformation(tmp_path, capsys, monkeypatch):
    # the operator deformation and the residuals' entry deformations share it
    built = []
    init = UpperDeformation.__init__

    def counted(self, table, gen):
        built.append((id(table), gen.level))
        init(self, table, gen)

    monkeypatch.setattr(UpperDeformation, "__init__", counted)
    path = write_gen(tmp_path, {"kind": "r", "level": 2, "matrix": [[0, 1], [-1, 0]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--tensor", "2", "--pmax", "1", "--hbar", "1")
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert len(built) == 1


def test_deform_bracket_names_first_bad_monomial(tmp_path, capsys, monkeypatch):
    # with the zero operator deformation the defining equation fails
    monkeypatch.setattr(cli, "bracket_deformation",
                        lambda table, pop, gen: DiffOperator.zero(table.dim, table.trunc))
    path = write_gen(tmp_path, {"kind": "r", "level": 1, "matrix": [["1"]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--pmax", "1", "--hbar", "1")
    assert code == 1
    obj = json.loads(out)
    assert obj["all_pass"] is False
    table = kdv_omega_table(3, 3, 1)
    want = defining_equation_residuals(table, PoissonOp.dx(1, 1), GiventalGen("r", 1, [[1]]),
                                       DiffOperator.zero(1, 1), 1)
    assert [r["index"] for r in obj["residuals"]] == [list(ix) for ix, _ in want]
    for got, (_, res) in zip(obj["residuals"], want):
        assert got["nonzero_monomials"] == res.num_terms() > 0
        g = min(k for k, c in enumerate(res.coeffs) if c)
        mono, coeff = next(res.coeffs[g].terms())
        assert got["first_nonzero_monomial"] == {
            "hbar": g, "coeff": str(coeff), "mono": [list(f) for f in mono]}


def test_residual_to_obj():
    assert cli._residual_to_obj((1, 0, 1), HbarSeries.zero(1)) == {
        "index": [1, 0, 1], "nonzero_monomials": 0}
    bad = HbarSeries(1, [JetPoly.zero(), V(1, 3) / 2 - V(1, 0) * V(1, 1) + 3])
    assert cli._residual_to_obj((1, 1, 1), bad) == {
        "index": [1, 1, 1], "nonzero_monomials": 3,
        "first_nonzero_monomial": {"hbar": 1, "coeff": "3", "mono": []}}


# `--format text` writes a report's keys in the order they are built, which
# JSON, with its sorted keys, does not show: pin the text of a passing and a
# failing (zero operator deformation) `deform bracket`
@pytest.mark.parametrize("zero_dP, level, matrix, flags, want_code, digest", [
    (False, 2, [["0", "1"], ["-1", "0"]], ("--tensor", "2", "--pmax", "1", "--hbar", "1"), 0,
     "b8aa0db04e37e23f959e6265291c67387822756f72e74a4243c4f86fd60b0aac"),
    (True, 1, [["1"]], ("--pmax", "1", "--hbar", "1"), 1,
     "ad31bf731310cafc4e575d53bdf866fd25cb93a018b625ee247af3a18f98ab3a"),
], ids=["r2-t2-passing", "r1-t1-zero-dP"])
def test_deform_bracket_text_pinned(tmp_path, capsys, monkeypatch, zero_dP, level, matrix,
                                    flags, want_code, digest):
    if zero_dP:
        monkeypatch.setattr(cli, "bracket_deformation",
                            lambda table, pop, gen: DiffOperator.zero(table.dim, table.trunc))
    path = write_gen(tmp_path, {"kind": "r", "level": level, "matrix": matrix})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--format", "text", *flags)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout of `deform omega` is pinned: no benchmark job prints deformed entries
DEFORM_OMEGA_SHA256 = [
    (1, [["1"]], "json", ("--pmax", "2", "--qmax", "2", "--hbar", "1"),
     "5ae06f1d895b8f2bce144e8767d43de768137fea4e0d317179086a90c4b5a7f0"),
    (2, [["0", "1"], ["-1", "0"]], "json",
     ("--tensor", "2", "--pmax", "2", "--qmax", "1", "--hbar", "1"),
     "eeb32b333c3909678d98dd295e873be9071df5894a1e9bdd1bfdfe8bf9d636c9"),
    (1, [["1", "2"], ["2", "-1"]], "text",
     ("--tensor", "2", "--pmax", "0", "--qmax", "0", "--hbar", "2"),
     "d997de91d14a3005ecdae049f355021a649f4b45e7842e87e3efe43675d62594"),
    (1, [["1", "2", "0"], ["2", "-1", "1/2"], ["0", "1/2", "3"]], "json",
     ("--tensor", "3", "--pmax", "1", "--qmax", "1", "--hbar", "1"),
     "a237e4bf06c954f2ec3c6e7f7cc27f2bca6980ab6d80b5da1ab59aa033e6a977"),
    (3, [["2", "-1", "1"], ["-1", "0", "3"], ["1", "3", "1"]], "text",
     ("--tensor", "3", "--pmax", "1", "--qmax", "0", "--hbar", "1"),
     "d6dd1fe09b5e50628e6613b0d56a0b8b0d92ca157f518fd6db11335a66e33f63"),
    (3, [["1"]], "text", ("--pmax", "2", "--qmax", "1", "--hbar", "1"),
     "6c38b0ee2899dabf9edfdc225038c2b3370a42371c9023733637f26b953e6a31"),
]


@pytest.mark.parametrize("level, matrix, fmt, flags, digest", DEFORM_OMEGA_SHA256,
                         ids=["r1-t1-h1-json", "r2-t2-h1-json", "r1-t2-h2-text",
                              "r1-t3-h1-json", "r3-t3-h1-text", "r3-t1-h1-text"])
def test_deform_omega_stdout_pinned(tmp_path, capsys, level, matrix, fmt, flags,
                                    digest):
    path = write_gen(tmp_path, {"kind": "r", "level": level, "matrix": matrix})
    code, out = run(capsys, "deform", "omega", "--generator", path,
                    "--format", fmt, *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deform_lower_zero_deformation(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "s", "level": 1, "matrix": [[1]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--pmax", "1", "--hbar", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True


def test_deform_lower_table_bound_ignores_the_level(tmp_path, capsys, monkeypatch):
    # a lower generator reads no entry past pmax + 1 + qmax, whatever its level
    bounds = []
    build = cli.kdv_omega_table

    def recorded(pmax, qmax, trunc):
        bounds.append((pmax, qmax))
        if pmax > 10:  # a bound of about level 999 would take minutes to build
            raise RuntimeError(f"table bound {pmax} built")
        return build(pmax, qmax, trunc)

    monkeypatch.setattr(cli, "kdv_omega_table", recorded)
    path = write_gen(tmp_path, {"kind": "s", "level": 999, "matrix": [["1"]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path)
    assert code == 0 and bounds == [(2, 2)]
    obj = json.loads(out)
    assert obj["all_pass"] is True and len(obj["residuals"]) == 2


def test_deform_lower_hbar2_two_colors(tmp_path, capsys):
    # the table at hbar^2 is derivable to index 2, which is all a lower
    # generator reads at pmax 1; an upper one needs index 3, out of range
    argv = ("deform", "bracket", "--tensor", "2", "--hbar", "2", "--pmax", "1", "--generator")
    path = write_gen(tmp_path, {"kind": "s", "level": 1, "matrix": [[1, 2], [2, 3]]})
    code, out = run(capsys, *argv, path)
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert [r["nonzero_monomials"] for r in obj["residuals"]] == [0] * 8
    path = write_gen(tmp_path, {"kind": "r", "level": 1, "matrix": [[1, 2], [2, 3]]})
    assert run(capsys, *argv, path)[0] == 2


def test_deform_omega_lower_reads_no_index_past_its_bounds(tmp_path, capsys):
    # hbar^2 tables are derivable to index 2, all that entries up to (1; 1) read
    path = write_gen(tmp_path, {"kind": "s", "level": 1, "matrix": [[1, 2], [2, 3]]})
    code, out = run(capsys, "deform", "omega", "--generator", path, "--tensor", "2",
                    "--hbar", "2", "--pmax", "1", "--qmax", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True and len(obj["entries"]) == 16
    gen = GiventalGen("s", 1, [[1, 2], [2, 3]])
    table = tensor_power(kdv_omega_table(2, 2, 2), 2)
    for entry in obj["entries"]:
        want = s_deform_omega(table, gen, *entry["index"])
        assert entry["value"] == json.loads(to_json(want))


@pytest.mark.parametrize("gen, message", [
    ({"kind": "r", "level": 2, "matrix": [[1]]}, ""),
    ({"kind": "zz", "level": 1, "matrix": [[1]]}, ""),
    (None, ""),
    ({"kind": "r", "level": 1, "matrix": [["1/0"]]}, ""),
    ({"kind": "r", "level": 1.5, "matrix": [[1]]}, ""),
    ({"kind": "r", "level": True, "matrix": [[1]]}, ""),
    ({"kind": "r", "level": 1, "matrix": "1"}, ""),
    ({"kind": "r", "level": 1, "matrix": ["1"]}, ""),
    ({"kind": "r", "level": 1, "matrix": []}, ""),
    ({"kind": "r", "level": 1, "matrix": [[True]]}, ""),
    ([1], "generator must be a JSON object"),
    ({"kind": "r", "level": 1}, "generator is missing 'matrix'"),
    ({"level": 1, "matrix": [[1]]}, "generator is missing 'kind'"),
    ({"kind": "r", "level": 1, "matrix": [[1]], "extra": 1}, ": unknown key 'extra'\n"),
], ids=["wrong-parity", "unknown-kind", "missing-file", "zero-denominator",
        "float-level", "bool-level", "matrix-string", "row-string", "empty-matrix",
        "bool-entry", "not-an-object", "missing-matrix", "missing-kind", "unknown-key"])
def test_deform_invalid_generator_exit2(tmp_path, capsys, gen, message):
    path = str(tmp_path / "missing.json") if gen is None else write_gen(tmp_path, gen)
    code = main(["deform", "bracket", "--generator", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid generator file")
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"kind": "r", "level": 1, "matrix": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["brackets", "deep-matrix"])
def test_deform_deeply_nested_generator_exit2(tmp_path, capsys, text):
    # a file nested deeper than Python's JSON parser reads is bad input too
    path = tmp_path / "gen.json"
    path.write_text(text)
    code = main(["deform", "bracket", "--generator", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: invalid generator file {path}: nested too deeply\n"


def test_deform_dimension_mismatch_exit2(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "r", "level": 2,
                                "matrix": [[0, 1], [-1, 0]]})
    code, _ = run(capsys, "deform", "bracket", "--generator", path)
    assert code == 2


def test_deform_two_color(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "r", "level": 2,
                                "matrix": [[0, 1], [-1, 0]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--tensor", "2", "--pmax", "1", "--hbar", "1")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_lemmas_seeded(capsys):
    code, out = run(capsys, "verify", "lemmas", "--seed", "7",
                    "--count", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["checks"][0]["detail"] == "10/10 zero residuals"


def test_verify_text_pinned(capsys):
    code, out = run(capsys, "verify", "homogeneity", "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c3e8f5f63459a72f2ee829ee673f7d24afd564ac245e17818436802fdc374bf8")


def test_verify_commutation(capsys):
    code, out = run(capsys, "verify", "commutation", "--pmax", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_uniqueness(capsys):
    code, out = run(capsys, "verify", "uniqueness")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("suite,pmax", [("uniqueness", "0"), ("uniqueness", "1"),
                                        ("all", "1")])
def test_verify_small_pmax(capsys, suite, pmax):
    # the perturbed-operator check reads p = 3 whatever --pmax is
    code, out = run(capsys, "verify", suite, "--pmax", pmax)
    assert code == 0
    assert json.loads(out)["ok"] is True


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def test_dump_flows_text(capsys):
    code, out = run(capsys, "dump", "flows", "--format", "text")
    assert code == 0
    assert "dw/dt1: w[1,0]*w[1,1] + hbar*(1/12*w[1,3])" in out


def test_dump_hamiltonians(capsys):
    code, out = run(capsys, "dump", "hamiltonians", "--format", "text")
    assert code == 0
    assert "h-1: w[1,0]" in out


def test_dump_quasi_miura_roundtrip(capsys):
    code, out = run(capsys, "dump", "quasi-miura")
    assert code == 0
    obj = json.loads(out)
    assert obj["forward"]["trunc"] == 2


def test_deform_zero_generator_exit0(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "r", "level": 2, "matrix": [[0]]})
    code, out = run(capsys, "deform", "bracket", "--generator", path,
                    "--pmax", "1", "--hbar", "1")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_deform_byte_determinism(tmp_path, capsys):
    path = write_gen(tmp_path, {"kind": "r", "level": 1, "matrix": [[1]]})
    argv = ("deform", "bracket", "--generator", path, "--pmax", "1",
            "--hbar", "1")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("suite", ["lemmas", "commutation", "quasimiura",
                                   "homogeneity", "uniqueness",
                                   "defining-equation", "all"])
def test_verify_every_suite_passes(capsys, suite):
    pmax = () if suite in ("lemmas", "quasimiura", "homogeneity") else ("--pmax", "2")
    count = ("--count", "5") if suite in ("lemmas", "all") else ()
    code, out = run(capsys, "verify", suite, *count, *pmax)
    assert code == 0
    assert json.loads(out)["ok"] is True


def count_base_point_builds(monkeypatch):
    """Counter of the base-point builds `suites` makes from now on: KdV
    tables by truncation, genus-0 tables, quasi-Miura changes and solves of
    an inverse change."""
    counts = Counter()

    def counting(name, fn, key=lambda *args: ()):
        def wrapper(*args):
            counts[(name, *key(*args))] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(suites, "kdv_omega_table",
                        counting("kdv_omega_table", suites.kdv_omega_table,
                                 lambda pmax, qmax, trunc: (trunc,)))
    monkeypatch.setattr(suites, "trr_extend", counting("trr_extend", suites.trr_extend))
    monkeypatch.setattr(suites, "quasi_miura", counting("quasi_miura", suites.quasi_miura))
    solve = MiuraChange.inverse_images

    def counting_solve(self):
        counts["inverse solve"] += self._inverse is None
        return solve(self)

    monkeypatch.setattr(MiuraChange, "inverse_images", counting_solve)
    return counts


def test_verify_all_builds_the_base_point_once_per_call(capsys, monkeypatch):
    counts = count_base_point_builds(monkeypatch)
    once = {("kdv_omega_table", 1): 1, ("kdv_omega_table", 2): 1,
            ("trr_extend",): 1, ("quasi_miura",): 1, "inverse solve": 1}
    for calls in (1, 2):  # nothing outlives a call: the second builds again
        code, out = run(capsys, "verify", "all", "--hbar", "2", "--count", "1")
        assert code == 0 and json.loads(out)["ok"] is True
        assert counts == {key: calls * n for key, n in once.items()}


@pytest.mark.parametrize("hbar", [0, 1, 2])
@pytest.mark.parametrize("pmax", [0, 2, 4])
def test_verify_all_checks_equal_each_suite_alone(pmax, hbar):
    args = {"seed": 7, "count": 2, "pmax": pmax, "hbar": hbar}
    alone = [check for name in suites.SUITES for check in suites.run_suite(name, **args)]
    assert suites.run_suite("all", **args) == alone


# ---------------------------------------------------------------------------
# bad input: every case exits 2 without a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("dump", "flows", "--hbar", "3"),
    ("dump", "kdv-table", "--pmax", "3", "--qmax", "3", "--hbar", "2"),
    ("dump", "hamiltonians", "--hbar", "3"),
    ("dump", "quasi-miura", "--hbar", "3"),
    ("verify", "defining-equation", "--hbar", "3"),
    ("verify", "defining-equation", "--hbar", "7"),
    ("verify", "all", "--hbar", "3", "--count", "1"),
])
def test_out_of_derivable_range_exit2(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["defining-equation", "all"])
def test_hbar_range_refused_before_any_suite_runs(capsys, monkeypatch, suite):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite or base-point build ran before the hbar "
                             "range was checked")

    for name in ("suite_lemmas", "suite_commutation", "suite_quasimiura",
                 "suite_homogeneity", "suite_uniqueness", "suite_defining_equation",
                 "kdv_omega_table", "trr_extend", "quasi_miura"):
        monkeypatch.setattr(suites, name, must_not_run)
    code = main(["verify", suite, "--hbar", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: the defining equation is certified through hbar^2 only\n"


def parse_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    capsys.readouterr()
    return info.value.code


@pytest.mark.parametrize("argv", [
    ("generate", "kdv", "--pmax", "-1"),
    ("generate", "kdv", "--qmax", "-1"),
    ("generate", "kdv", "--hbar", "-1"),
    ("dump", "flows", "--hbar", "-1"),
    ("generate", "kdv", "--tensor", "0"),
    ("generate", "principal", "--dim", "0", "--hessian", '[["v"]]'),
    ("verify", "lemmas", "--count", "-5"),
    ("verify", "lemmas", "--count", "0"),
])
def test_out_of_range_sizes_rejected(capsys, argv):
    assert parse_exit_code(capsys, argv) == 2


@pytest.mark.parametrize("argv", [
    ("dump", "flows", "--tensor", "2"),
    ("dump", "flows", "--seed", "1"),
    ("generate", "kdv", "--seed", "1"),
    ("generate", "kdv", "--count", "1"),
    ("deform", "bracket", "--generator", "g.json", "--dim", "1"),
    ("deform", "bracket", "--generator", "g.json", "--count", "1"),
    ("verify", "lemmas", "--dim", "1"),
    ("verify", "lemmas", "--qmax", "1"),
    ("verify", "lemmas", "--tensor", "1"),
    ("deform", "omega", "--generator", "g.json", "--seed", "1"),
    ("deform", "bracket", "--generator", "g.json", "--seed", "1"),
])
def test_flags_nothing_reads_rejected(capsys, argv):
    assert parse_exit_code(capsys, argv) == 2


@pytest.mark.parametrize("argv", [
    ("generate", "kdv", "--dim", "2"),
    ("generate", "kdv", "--hessian", '[["v"]]'),
    ("generate", "principal", "--hessian", '[["v"]]', "--tensor", "2"),
    ("generate", "principal", "--hessian", '[["v"]]', "--hbar", "1"),
    ("verify", "lemmas", "--pmax", "2"),
    ("verify", "lemmas", "--hbar", "1"),
    ("verify", "commutation", "--hbar", "1"),
    ("verify", "commutation", "--seed", "1"),
    ("verify", "commutation", "--count", "2"),
    ("verify", "quasimiura", "--pmax", "2"),
    ("verify", "quasimiura", "--hbar", "1"),
    ("verify", "quasimiura", "--seed", "1"),
    ("verify", "quasimiura", "--count", "2"),
    ("verify", "homogeneity", "--pmax", "9"),
    ("verify", "homogeneity", "--hbar", "1"),
    ("verify", "homogeneity", "--seed", "1"),
    ("verify", "homogeneity", "--count", "2"),
    ("verify", "uniqueness", "--hbar", "1"),
    ("verify", "uniqueness", "--seed", "1"),
    ("verify", "uniqueness", "--count", "2"),
    ("verify", "defining-equation", "--seed", "1"),
    ("verify", "defining-equation", "--count", "2"),
    ("dump", "flows", "--pmax", "1"),
    ("dump", "hamiltonians", "--qmax", "1"),
    ("dump", "quasi-miura", "--pmax", "1"),
    ("deform", "bracket", "--generator", "g.json", "--qmax", "2"),
])
def test_flags_the_target_does_not_read_rejected(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"does not read {argv[-2]}" in captured.err


def test_no_flag_is_rejected_by_every_target():
    # UNREAD names, for each target, flags its subcommand takes; a flag that
    # every target of its subcommand rejects could as well not be defined
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for command, sub in commands.items():
        targets = next(a for a in sub._actions if not a.option_strings).choices
        flags = {a.dest for a in sub._actions if a.option_strings} - {"help", "format"}
        for (name, target), unread in cli.UNREAD.items():
            if name == command:
                assert target in targets and set(unread) <= flags, (name, target)
        dead = [flag for flag in sorted(flags)
                if all(flag in cli.UNREAD.get((command, t), ()) for t in targets)]
        assert dead == [], (command, dead)


def parse_outcome(parser, argv):
    """(stdout, stderr, exit code) of parsing argv, as the process would see them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(list(argv))
            code = 0
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def argparse_default(parser):
    """`parser`, and every subparser under it, set to format with argparse's
    default HelpFormatter, which reads the terminal width itself."""
    parser.formatter_class = argparse.HelpFormatter
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                argparse_default(sub)
    return parser


TARGETS = {"generate": ("kdv",), "deform": ("omega", "--generator", "g.json"),
           "verify": ("lemmas",), "dump": ("flows",), None: ()}


@pytest.mark.parametrize("command", cli.COMMANDS + (None,))
@pytest.mark.parametrize("tail", ["--help", "--bogus", "x", "target --bogus"])
def test_subcommand_parser_fails_as_the_full_parser(monkeypatch, command, tail):
    # main builds only the named subcommand's parser: its help, its errors
    # and the top-level usage line an unknown flag prints are the full
    # parser's bytes.  Each parser reads the terminal width once, and prints
    # at every width as it would with argparse's default formatter
    argv = ((command,) if command else ()) + (
        TARGETS[command] + ("--bogus",) if tail == "target --bogus" else (tail,))
    for columns in (40, 80, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        full = parse_outcome(cli.build_parser(), argv)
        assert full[2] == (0 if tail == "--help" else 2)
        assert full[0] if tail == "--help" else full[1]
        assert parse_outcome(cli.build_parser(command), argv) == full
        assert parse_outcome(argparse_default(cli.build_parser(command)), argv) == full


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    code, _ = run(capsys, "dump", "flows", "--hbar", "1")
    assert code == 0 and built == ["dump"]
    parser = build_parser("dump")
    assert list(parser._subparsers._group_actions[0].choices) == ["dump"]
    assert list(build_parser()._subparsers._group_actions[0].choices) == list(cli.COMMANDS)


def test_python_m_jethier_runs_the_command_line():
    # from a checkout, without installing
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "jethier", "verify", "homogeneity"],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["suite"] == "homogeneity"
