"""The map expression language: grammar, positions, evaluation, round trips."""

import random
from fractions import Fraction

import pytest

from dp2fp import CustomMap, EpsRational, FpElem, parse_map_expr, print_map_expr
from dp2fp.errors import DivisionByZeroError, ParseError
from dp2fp.mapexpr import (
    BinOp,
    Ident,
    Neg,
    Num,
    Pow,
    Var,
    eval_map_expr,
    free_idents,
    uses_variable,
)


def test_parse_qrt_shape():
    ast = parse_map_expr("(a*x+1)/(x^2*y)")
    assert isinstance(ast, BinOp) and ast.op == "/"
    assert free_idents(ast) == {"a"}
    assert uses_variable(ast, "x") and not uses_variable(ast, "n")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_map_expr("x+")
    assert err.value.column == 3 and err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_map_expr("x^y")
    assert err.value.column == 3
    assert "NAT" in err.value.expected
    with pytest.raises(ParseError):
        parse_map_expr("(x+1")
    with pytest.raises(ParseError):
        parse_map_expr("x $ y")
    with pytest.raises(ParseError):
        parse_map_expr("x+1)")


def test_rational_literals_and_division():
    assert parse_map_expr("3/4") == Num(Fraction(3, 4))
    # a literal followed by division: (3/4)/5
    ast = parse_map_expr("3/4/5")
    assert isinstance(ast, BinOp) and ast.left == Num(Fraction(3, 4))
    # division when the right operand is a variable
    ast = parse_map_expr("2/x")
    assert isinstance(ast, BinOp) and ast.op == "/"
    with pytest.raises(ParseError):
        parse_map_expr("1/0")


def test_precedence_and_unary_minus():
    # '^' binds tighter than unary minus: -x^2 == -(x^2)
    ast = parse_map_expr("-x^2")
    assert isinstance(ast, Neg) and isinstance(ast.arg, Pow)
    # left associativity
    ast = parse_map_expr("1-2-3")
    assert ast == BinOp("-", BinOp("-", Num(Fraction(1)), Num(Fraction(2))),
                        Num(Fraction(3)))
    ast = parse_map_expr("2*x+1")
    assert isinstance(ast, BinOp) and ast.op == "+"
    with pytest.raises(ParseError):
        parse_map_expr("x^2^3")


def random_ast(rng, depth=0):
    kinds = ["num", "var", "ident"]
    if depth < 3:
        kinds += ["neg", "pow", "bin", "bin", "bin"]
    kind = rng.choice(kinds)
    if kind == "num":
        return Num(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
    if kind == "var":
        return Var(rng.choice("xyn"))
    if kind == "ident":
        return Ident(rng.choice(("a", "b", "c_1")))
    if kind == "neg":
        return Neg(random_ast(rng, depth + 1))
    if kind == "pow":
        return Pow(random_ast(rng, depth + 1), rng.randint(0, 4))
    return BinOp(rng.choice("+-*/"), random_ast(rng, depth + 1),
                 random_ast(rng, depth + 1))


def test_print_parse_round_trip():
    rng = random.Random(20250809)
    for _ in range(300):
        ast = random_ast(rng)
        assert parse_map_expr(print_map_expr(ast)) == ast


def test_eval_over_three_carriers():
    ast = parse_map_expr("(a*x+1)/(x^2*y)")
    bindings = {"a": Fraction(1)}
    # rationals
    v = eval_map_expr(ast, Fraction(2), Fraction(3), 0, bindings, Fraction)
    assert v == Fraction(3, 12)
    # residues
    v = eval_map_expr(ast, FpElem(2, 5), FpElem(3, 5), 0, bindings,
                      lambda c: FpElem(int(c), 5))
    assert v == FpElem(3, 5) / FpElem(12, 5)
    # perturbation functions
    x = EpsRational.eps()
    v = eval_map_expr(ast, x, EpsRational.from_const(1), 0, bindings,
                      EpsRational.from_const)
    assert v.ord0() == -2


def test_eval_division_by_zero():
    ast = parse_map_expr("1/x")
    with pytest.raises(DivisionByZeroError):
        eval_map_expr(ast, Fraction(0), Fraction(1), 0, {}, Fraction)


def test_eval_n_and_pow_zero():
    ast = parse_map_expr("n + x^0")
    v = eval_map_expr(ast, Fraction(5), Fraction(0), 7, {}, Fraction)
    assert v == 8


def test_custom_map_binds_parameters():
    fam = CustomMap("(a*x+1)/(x^2*y)", "x", 5, {"a": Fraction(1)})
    x1, y1 = fam.step(Fraction(1), Fraction(1), 0)
    assert (x1, y1) == (Fraction(2), Fraction(1))
    with pytest.raises(ParseError):
        CustomMap("a*x", "x", 5)   # unbound parameter


def test_custom_map_scan_points_probe_division_by_zero():
    fam = CustomMap("(x+1)/y", "x", 3)
    points = list(fam.scan_points())
    # singular exactly where y = 0; autonomous, so n = 0 only
    assert {(lbl, y) for lbl, y, *_ in points} == {("0", 0), ("1", 0), ("2", 0)}


def test_custom_map_matches_qrt():
    from dp2fp import QRTParams, SingularLift, confine
    from dp2fp.maps import QRTMap

    fam = CustomMap("(a*x+1)/(x^2*y)", "x", 5, {"a": Fraction(2)})
    ref = QRTMap(QRTParams(p=5, gamma=2, a=2))
    lift = SingularLift(s=Fraction(0), y0=Fraction(3))
    rep_custom = confine(fam, lift)
    rep_ref = confine(ref, lift)
    assert rep_custom.m == rep_ref.m == 3
    assert rep_custom.image == rep_ref.image
