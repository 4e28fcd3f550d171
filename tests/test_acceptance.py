"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every equality here is exact rational equality, zero tolerance.
"""

import math
from fractions import Fraction as F

import pytest

import reference_data as ref
from helpers import frac_rows, matrix_product, orthogonal_polys
from riordan import (
    RiordanElement,
    TriMatrix,
    TruncatedSeries,
    a085478_element,
    a085478_second_entry,
    a092276_entry,
    catalan_array,
    catalan_gf,
    evaluate_text,
    generate_from_production,
    iterate_second_production,
    load_stripped,
    moment_element,
    moment_entry,
    nth_production_matrix,
    pascal,
    produced_matrix_closed_form,
    production_block,
    production_matrix,
    verify_nth_conjecture,
)


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")


def identity_matrix(size):
    return TriMatrix([[0] * i + [1] for i in range(size)])


# -- criterion 1: worked-display reproduction ---------------------------------

def test_worked_display_reproduction():
    e85 = a085478_element(12)
    cat = catalan_array(12)
    checks = []

    checks.append(e85.matrix(7) == TriMatrix(ref.A085478_TRIANGLE_7))
    checks.append(
        production_matrix(e85, 7).rows == frac_rows(ref.A085478_PRODUCTION_7)
    )
    checks.append(production_block(e85, 2, 7) == frac_rows(ref.A085478_ROWS2_BLOCK_7))
    checks.append(
        nth_production_matrix(e85, 2, 7).rows
        == frac_rows(ref.A085478_SECOND_PRODUCTION_7)
    )

    # 6x6 product identity: produced matrix = left factor times the triangle
    produced = produced_matrix_closed_form(e85, 2).matrix(6)
    left = TriMatrix(ref.A092276_TRIANGLE_6)
    checks.append(produced == TriMatrix(ref.A085478_SECOND_PRODUCED_6))
    checks.append(produced == matrix_product(left, e85.matrix(6)))

    checks.append(production_block(e85, 3, 7) == frac_rows(ref.A085478_ROWS3_BLOCK_7))
    checks.append(
        nth_production_matrix(e85, 3, 8).rows
        == frac_rows(ref.A085478_THIRD_PRODUCTION_8)
    )
    checks.append(
        generate_from_production(nth_production_matrix(e85, 3, 8), 8)
        == TriMatrix(ref.A085478_THIRD_PRODUCED_8)
    )

    checks.append(cat.matrix(7) == TriMatrix(ref.A033184_TRIANGLE_7))
    checks.append(
        nth_production_matrix(cat, 2, 6).rows
        == frac_rows(ref.CATALAN_SECOND_PRODUCTION_6)
    )
    checks.append(
        produced_matrix_closed_form(cat, 2).matrix(6)
        == TriMatrix(ref.A092276_TRIANGLE_6)
    )
    checks.append(
        nth_production_matrix(cat, 3, 7).rows
        == frac_rows(ref.CATALAN_THIRD_PRODUCTION_7)
    )
    checks.append(
        produced_matrix_closed_form(cat, 3).matrix(7)
        == TriMatrix(ref.CATALAN_THIRD_PRODUCED_7)
    )
    checks.append(
        nth_production_matrix(cat, 4, 7).rows
        == frac_rows(ref.CATALAN_FOURTH_PRODUCTION_7)
    )
    checks.append(
        produced_matrix_closed_form(cat, 4).matrix(7)
        == TriMatrix(ref.CATALAN_FOURTH_PRODUCED_7)
    )

    # tridiagonal production matrix of the moment family, instantiated at r
    for r in (1, 2, 3):
        expected = [[F(0)] * 6 for _ in range(6)]
        for i in range(6):
            if i + 1 < 6:
                expected[i][i + 1] = F(1)
            expected[i][i] = F(2 * r)
            if i >= 1:
                expected[i][i - 1] = F(r * r)
        checks.append(
            production_matrix(moment_element(r, 8), 6).rows
            == tuple(tuple(row) for row in expected)
        )

    # exponent-doubling chain from the binomial matrix
    chain = iterate_second_production(pascal(12), 3)
    for j, stage in enumerate(chain):
        base = TruncatedSeries([1, 1], stage.order) ** (2**j)
        g = 1 / base
        inverse_form = RiordanElement(g, g.shift_up(1).truncate(stage.order))
        checks.append(stage == inverse_form.inverse())

    ok = all(checks)
    report("worked-display reproduction", ok)
    assert ok, f"failed display checks at positions {[i for i, c in enumerate(checks) if not c]}"


# -- criteria 2 and 3: proved produced-matrix identities ----------------------

@pytest.mark.parametrize("n", [2, 3])
def test_produced_matrix_identity_battery(battery, n):
    bad = []
    for e in battery:
        produced = generate_from_production(nth_production_matrix(e, n, 10), 10)
        closed = produced_matrix_closed_form(e, n).matrix(10)
        if produced != closed:
            bad.append(e)
    ok = not bad
    report(f"order-{n} produced-matrix identity on {len(battery)} random elements", ok)
    assert ok, f"identity failed for {len(bad)} elements, e.g. {bad[:1]}"


# -- criterion 4: unproven higher orders are reported, not asserted -----------

def test_higher_order_conjecture_reports(battery):
    reports = []
    for e in battery:
        for n in (4, 5, 6):
            reports.append(verify_nth_conjecture(e, n, 8))
    assert len(reports) == 3 * len(battery)  # gate: no crashes, all reports built
    counterexamples = [r for r in reports if not r.equal]
    for r in counterexamples:
        print("COUNTEREXAMPLE FOUND:")
        print(r.to_json_dict())
    report(
        f"higher-order conjecture: equal on {len(reports) - len(counterexamples)}"
        f"/{len(reports)} instances (n in 4..6, size 8)",
        not counterexamples,
    )


# -- criterion 5: closed-form entry cross-checks ------------------------------

def test_closed_form_entry_crosschecks():
    produced85 = produced_matrix_closed_form(a085478_element(9), 2).matrix(8)
    ok = all(
        a085478_second_entry(n, k) == produced85[n, k]
        for n in range(8)
        for k in range(n + 1)
    )

    produced_cat = produced_matrix_closed_form(catalan_array(7), 2).matrix(6)
    ok &= all(
        a092276_entry(n, k) == produced_cat[n, k]
        for n in range(6)
        for k in range(n + 1)
    )
    ok &= a092276_entry(3, 0) == 30
    ok &= a092276_entry(4, 0) == 143
    ok &= a092276_entry(5, 2) == 182

    for r in (-2, -1, 0, 1, 2, 3):
        m = moment_element(r, 8).matrix(9)
        ok &= all(
            m[n, k] == moment_entry(r, n, k)
            for n in range(9)
            for k in range(n + 1)
        )

    report("closed-form entry cross-checks", ok)
    assert ok


# -- criterion 6: orthogonal polynomial family --------------------------------

def test_orthogonal_polynomial_family():
    ok = True
    for r in (F(-1), F(1), F(2)):
        # the rows family prints, read off the production matrix, against
        # the closed-form oracle
        rows = [list(row) for row in production_matrix(moment_element(r, 13), 13).orthogonal_rows(1)]
        ok &= rows == [list(row) for row in orthogonal_polys(r, 13)]
        ok &= rows[0] == [1] and rows[1] == [-2 * r, 1]
        for n in range(2, 13):
            lhs = rows[n]
            shifted = [F(0)] + rows[n - 1]
            rhs = [
                s - 2 * r * a - r * r * b
                for s, a, b in zip(
                    shifted,
                    rows[n - 1] + [F(0)],
                    rows[n - 2] + [F(0), F(0)],
                )
            ]
            ok &= lhs == rhs[: n + 1]
        coeff = TriMatrix(rows)
        ok &= matrix_product(moment_element(r, 12).matrix(13), coeff) == identity_matrix(13)
    report("orthogonal polynomial recurrence and inversion", ok)
    assert ok


# -- criterion 7: structural invariants ---------------------------------------

def test_structural_invariants(battery):
    ok = True

    for e in battery[:10]:
        ok &= generate_from_production(production_matrix(e, 12), 12) == e.matrix(12)

    x = TruncatedSeries([0, 1], 14)
    for e in battery[:10]:
        rev = e.reverted_f()
        ok &= e.f.compose(rev) == x and rev.compose(e.f) == x

    for e1, e2 in zip(battery[:10], battery[10:20]):
        ok &= e1.mul(e2).matrix(10) == matrix_product(e1.matrix(10), e2.matrix(10))

    appell = RiordanElement(TruncatedSeries([1, 1, 1, 1], 12), TruncatedSeries([0, 1], 12))
    for n in range(2, 7):
        ok &= produced_matrix_closed_form(appell, n) == appell

    chain = iterate_second_production(RiordanElement.identity(10), 5)
    ok &= all(stage == RiordanElement.identity(10) for stage in chain)

    report("structural invariants", ok)
    assert ok


# -- criterion 8: expression corpus against kernel oracles --------------------

def test_expression_corpus():
    order = 10
    one = TruncatedSeries([1], order)
    x = TruncatedSeries([0, 1], order)
    inv1mx = 1 / TruncatedSeries([1, -1], order)
    c = catalan_gf(order)
    c_neg = catalan_gf(order).compose(-x)
    sqrt14 = TruncatedSeries([1, 4], order).sqrt()

    def quotient_x3(numerator_at_13):
        return numerator_at_13.shift_down(3) / 2

    big1 = (
        TruncatedSeries([1, 1], order + 3) * TruncatedSeries([1, 4], order + 3).sqrt()
        - TruncatedSeries([1, 3], order + 3)
    )
    big2 = (
        TruncatedSeries([1, 4, 2], order + 3)
        - TruncatedSeries([1, 2], order + 3)
        * TruncatedSeries([1, 4], order + 3).sqrt()
    )

    def alternating_binomial(power):
        # 1/(1+x)^power = sum (-1)^n C(n+power-1, power-1) x^n
        return TruncatedSeries(
            [F((-1) ** n * math.comb(n + power - 1, power - 1)) for n in range(order + 1)]
        )

    corpus = [
        ("1/(1-x)", inv1mx),
        ("x/(1-x)", x * inv1mx),
        ("x/(1-x)^2", x * inv1mx * inv1mx),
        ("(1-sqrt(1-4*x))/(2*x)", c),
        ("c(x)", c),
        ("x*c(x)", x * c),
        ("1-x", one - x),
        ("1-c(-x)", 1 - c_neg),
        ("x*c(-x)^2", x * c_neg * c_neg),
        ("(1+x)*sqrt(1+4*x)", TruncatedSeries([1, 1], order) * sqrt14),
        ("((1+x)*sqrt(1+4*x)-1-3*x)/(2*x^3)", quotient_x3(big1)),
        ("(1+4*x+2*x^2-(1+2*x)*sqrt(1+4*x))/(2*x^3)", quotient_x3(big2)),
        ("x*c(-x)^4", x * c_neg**4),
        ("(1-x)^2", TruncatedSeries([1, -2, 1], order)),
        ("x*(1-x)^2", TruncatedSeries([0, 1, -2, 1], order)),
        ("(1-x)^3", TruncatedSeries([1, -3, 3, -1], order)),
        ("x*(1-x)^3", TruncatedSeries([0, 1, -3, 3, -1], order)),
        ("(1-x)^4", TruncatedSeries([1, -4, 6, -4, 1], order)),
        ("x*(1-x)^4", TruncatedSeries([0, 1, -4, 6, -4, 1], order)),
        ("x*(1-x)", TruncatedSeries([0, 1, -1], order)),
        ("1/c(x)", 1 / c),
        ("x/c(x)", x / c),
        ("1/c(x)^2", 1 / (c * c)),
        ("x/c(x)^2", x / (c * c)),
        ("1/c(x)^3", 1 / (c * c * c)),
        ("x/c(x)^3", x / (c * c * c)),
        ("1/(1-2*x)", 1 / TruncatedSeries([1, -2], order)),
        ("1/(1+x)", alternating_binomial(1)),
        ("x/(1+x)", x * alternating_binomial(1)),
        ("1/(1+x)^2", alternating_binomial(2)),
        ("x/(1+x)^2", x * alternating_binomial(2)),
        ("1/(1+x)^4", alternating_binomial(4)),
        ("x/(1+x)^4", x * alternating_binomial(4)),
        ("1/(1+x)^8", alternating_binomial(8)),
        ("x/(1+x)^8", x * alternating_binomial(8)),
        ("c(2*x)^2", catalan_gf(order).compose(2 * x) ** 2),
    ]
    failures = [text for text, oracle in corpus if evaluate_text(text, order) != oracle]

    # the displayed quotient equals rev(x/(1-x)^2)^2 / x exactly, which in
    # turn is x*c(-x)^4
    f = TruncatedSeries([0, 1], 11) * (TruncatedSeries([1, -1], 11) ** -2)
    rev_sq_over_x = (f.revert() ** 2).shift_down(1)
    special = evaluate_text(
        "(1+4*x+2*x^2-(1+2*x)*sqrt(1+4*x))/(2*x^3)", 10
    ) == rev_sq_over_x
    special &= rev_sq_over_x == x * c_neg**4

    ok = not failures and special and len(corpus) >= 20
    report(f"expression corpus ({len(corpus)} fixtures)", ok)
    assert ok, f"failures: {failures}, special quotient ok: {special}"


# -- criterion 9: OEIS identification -----------------------------------------

def test_oeis_identification(oeis_fixture_path):
    index = load_stripped(oeis_fixture_path)
    found_catalan = [
        m.anumber for m in index.identify_triangle(catalan_array(7).matrix(6))
    ]
    found_pascal = [
        m.anumber for m in index.identify_triangle(pascal(7).matrix(6))
    ]
    found_85 = [
        m.anumber for m in index.identify_triangle(a085478_element(7).matrix(6))
    ]
    found_seq = [
        m.anumber for m in index.identify_sequence([1, 1, 2, 5, 14, 42, 132])
    ]
    ok = (
        "A033184" in found_catalan
        and "A007318" in found_pascal
        and "A085478" in found_85
        and "A000108" in found_seq
    )
    report("OEIS identification against the bundled fixture", ok)
    assert ok
