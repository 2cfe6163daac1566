"""Tests for the EUF+LIA combination layer."""

from repro.smt import terms as tm
from repro.smt.sorts import BOOL, INT, OBJ
from repro.smt.theory import check_literals


def ivar(name):
    return tm.mk_var(name, INT)


def ovar(name):
    return tm.mk_var(name, OBJ)


def test_pure_lia_literals():
    x = ivar("x")
    outcome = check_literals(
        [
            (tm.mk_le(x, tm.mk_int(5)), True),
            (tm.mk_le(tm.mk_int(3), x), True),
        ]
    )
    assert outcome.consistent
    value = outcome.model.int_values[x]
    assert 3 <= value <= 5


def test_pure_lia_conflict_with_core():
    x = ivar("x")
    le5 = tm.mk_le(x, tm.mk_int(5))
    ge7 = tm.mk_le(tm.mk_int(7), x)
    other = tm.mk_le(ivar("y"), tm.mk_int(0))
    outcome = check_literals([(le5, True), (other, True), (ge7, True)])
    assert not outcome.consistent
    core_atoms = {atom for atom, _ in outcome.conflict}
    assert other not in core_atoms, "conflict core should be minimised"


def test_negated_le():
    x = ivar("x")
    outcome = check_literals(
        [
            (tm.mk_le(x, tm.mk_int(5)), False),  # x > 5
            (tm.mk_le(x, tm.mk_int(5)), False),
        ]
    )
    assert outcome.consistent
    assert outcome.model.int_values[x] >= 6


def test_pure_euf_conflict():
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    outcome = check_literals(
        [
            (tm.mk_eq(a, b), True),
            (tm.mk_eq(b, c), True),
            (tm.mk_eq(a, c), False),
        ]
    )
    assert not outcome.consistent


def test_euf_model_classes():
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    outcome = check_literals(
        [
            (tm.mk_eq(a, b), True),
            (tm.mk_eq(a, c), False),
        ]
    )
    assert outcome.consistent
    model = outcome.model
    assert model.same_object(a, b)
    assert not model.same_object(a, c)


def test_euf_to_lia_propagation():
    # t1 = t2 (EUF) forces height(t1) = height(t2) (LIA).
    height = tm.FunSym("height", [OBJ], INT)
    t1, t2 = ovar("t1"), ovar("t2")
    h1, h2 = tm.mk_app(height, [t1]), tm.mk_app(height, [t2])
    outcome = check_literals(
        [
            (tm.mk_eq(t1, t2), True),
            (tm.mk_le(h1, tm.mk_int(3)), True),
            (tm.mk_le(tm.mk_int(4), h2), True),
        ]
    )
    assert not outcome.consistent


def test_lia_to_euf_propagation():
    # x <= y, y <= x forces x = y, so f(x) = f(y).
    f = tm.FunSym("f", [INT], OBJ)
    x, y = ivar("x"), ivar("y")
    fx, fy = tm.mk_app(f, [x]), tm.mk_app(f, [y])
    outcome = check_literals(
        [
            (tm.mk_le(x, y), True),
            (tm.mk_le(y, x), True),
            (tm.mk_eq(fx, fy), False),
        ]
    )
    assert not outcome.consistent


def test_boolean_predicates():
    p = tm.FunSym("p", [OBJ], BOOL)
    a = ovar("a")
    pa = tm.mk_app(p, [a])
    outcome = check_literals([(pa, True)])
    assert outcome.consistent
    assert outcome.model.atom_values[pa] is True


def test_predicate_congruence_conflict():
    p = tm.FunSym("p", [OBJ], BOOL)
    a, b = ovar("a"), ovar("b")
    outcome = check_literals(
        [
            (tm.mk_app(p, [a]), True),
            (tm.mk_app(p, [b]), False),
            (tm.mk_eq(a, b), True),
        ]
    )
    assert not outcome.consistent


def test_mixed_skolem_style_reasoning():
    # The Fig. 6 redundancy shape: succ(n) = succ_out and not P(n, out).
    succ_out = tm.FunSym("succ_out", [OBJ], OBJ)
    p = tm.FunSym("P_succ", [OBJ, OBJ], BOOL)
    n = ovar("n")
    out = tm.mk_app(succ_out, [n])
    outcome = check_literals(
        [
            (tm.mk_app(p, [n, out]), False),
            (tm.mk_app(p, [n, out]), False),
        ]
    )
    assert outcome.consistent
    outcome = check_literals(
        [
            (tm.mk_app(p, [n, out]), False),
            (tm.mk_app(p, [n, out]), True),
        ]
    )
    assert not outcome.consistent


def test_int_equality_goes_to_lia():
    x, y = ivar("x"), ivar("y")
    outcome = check_literals(
        [
            (tm.mk_eq(x, y), True),
            (tm.mk_le(x, tm.mk_int(0)), True),
            (tm.mk_le(tm.mk_int(1), y), True),
        ]
    )
    assert not outcome.consistent


def test_int_disequality():
    x = ivar("x")
    outcome = check_literals(
        [
            (tm.mk_eq(x, tm.mk_int(3)), False),
            (tm.mk_le(x, tm.mk_int(3)), True),
            (tm.mk_le(tm.mk_int(3), x), True),
        ]
    )
    assert not outcome.consistent


def test_arithmetic_over_uninterpreted_terms():
    # val(o) >= 0 and val(o) = n - 1 and n = 0 is unsat.
    val = tm.FunSym("val", [OBJ], INT)
    o = ovar("o")
    n = ivar("n")
    vo = tm.mk_app(val, [o])
    outcome = check_literals(
        [
            (tm.mk_le(tm.mk_int(0), vo), True),
            (tm.mk_eq(vo, tm.mk_sub(n, tm.mk_int(1))), True),
            (tm.mk_eq(n, tm.mk_int(0)), True),
        ]
    )
    assert not outcome.consistent


def test_context_conflict_forgets_retracted_literals():
    # The first check explains f(a) != f(b) by a = b; the second drops
    # a = b and derives it through m instead.  A proof edge left over
    # from the first check would be the shorter path and cite a = b.
    from repro.smt.theory import TheoryContext

    f = tm.FunSym("f", [OBJ], OBJ)
    a, b, m = ovar("a"), ovar("b"), ovar("m")
    ne = (tm.mk_eq(tm.mk_app(f, [a]), tm.mk_app(f, [b])), False)
    direct = (tm.mk_eq(a, b), True)
    via_m = [(tm.mk_eq(a, m), True), (tm.mk_eq(m, b), True)]
    context = TheoryContext()
    first = context.check(sorted([direct, ne], key=lambda l: l[0]._id))
    assert set(first.conflict) == {direct, ne}
    second = context.check(sorted(via_m + [ne], key=lambda l: l[0]._id))
    assert not second.consistent
    assert set(second.conflict) == set(via_m + [ne])
