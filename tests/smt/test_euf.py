"""Unit tests for congruence closure."""

import pytest

from repro.smt import terms as tm
from repro.smt.euf import EufSolver
from repro.smt.sorts import BOOL, INT, OBJ


def obj(name):
    return tm.mk_var(name, OBJ)


def fun(name, arity, result=OBJ):
    return tm.FunSym(name, [OBJ] * arity, result)


def test_reflexive():
    e = EufSolver()
    assert e.check()
    assert e.congruent(obj("a"), obj("a"))


def test_transitive_equality():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b)
    e.assert_eq(b, c)
    assert e.check()
    assert e.congruent(a, c)


def test_disequality_conflict():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b)
    e.assert_eq(b, c)
    e.assert_ne(a, c)
    assert not e.check()


def test_congruence_one_level():
    f = fun("f", 1)
    e = EufSolver()
    a, b = obj("a"), obj("b")
    e.assert_eq(a, b)
    assert e.check()
    assert e.congruent(tm.mk_app(f, [a]), tm.mk_app(f, [b]))


def test_congruence_nested():
    f = fun("f", 1)
    e = EufSolver()
    a, b = obj("a"), obj("b")
    fa = tm.mk_app(f, [a])
    ffa = tm.mk_app(f, [fa])
    fb = tm.mk_app(f, [b])
    ffb = tm.mk_app(f, [fb])
    e.assert_eq(a, b)
    e.assert_ne(ffa, ffb)
    assert not e.check()


def test_classic_ackermann_example():
    # f(f(f(a))) = a, f(f(f(f(f(a))))) = a |= f(a) = a
    f = fun("f", 1)
    e = EufSolver()
    a = obj("a")

    def fn(t, n):
        for _ in range(n):
            t = tm.mk_app(f, [t])
        return t

    e.assert_eq(fn(a, 3), a)
    e.assert_eq(fn(a, 5), a)
    e.assert_ne(fn(a, 1), a)
    assert not e.check()


def test_binary_function_congruence():
    g = fun("g", 2)
    e = EufSolver()
    a, b, c, d = obj("a"), obj("b"), obj("c"), obj("d")
    e.assert_eq(a, c)
    e.assert_eq(b, d)
    assert e.check()
    assert e.congruent(tm.mk_app(g, [a, b]), tm.mk_app(g, [c, d]))


def test_predicate_atoms():
    p = tm.FunSym("p", [OBJ], BOOL)
    e = EufSolver()
    a, b = obj("a"), obj("b")
    pa = tm.mk_app(p, [a])
    pb = tm.mk_app(p, [b])
    e.assert_pred(pa, True)
    e.assert_pred(pb, False)
    assert e.check()
    # a = b now makes p(a) and p(b) congruent -> true = false.
    e.assert_eq(a, b)
    assert not e.check()


def test_unrelated_terms_not_congruent():
    e = EufSolver()
    a, b = obj("a"), obj("b")
    e.find(a)
    e.find(b)
    assert e.check()
    assert not e.congruent(a, b)


def test_classes_partition():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b)
    e.find(c)
    assert e.check()
    classes = e.classes()
    rep_ab = e.find(a)
    assert set(classes[rep_ab]) >= {a, b}
    assert e.find(c) is not rep_ab


def test_int_valued_functions():
    height = tm.FunSym("height", [OBJ], INT)
    e = EufSolver()
    t1, t2 = obj("t1"), obj("t2")
    h1 = tm.mk_app(height, [t1])
    h2 = tm.mk_app(height, [t2])
    e.assert_eq(t1, t2)
    assert e.check()
    assert e.congruent(h1, h2)


# -- explanations ---------------------------------------------------------


def test_explain_transitive_chain():
    e = EufSolver()
    a, b, c, d, z = (obj(n) for n in "abcdz")
    e.assert_eq(a, b, "ab")
    e.assert_eq(b, c, "bc")
    e.assert_eq(c, d, "cd")
    e.assert_eq(d, z, "dz")
    assert e.check()
    assert e.explain(a, d) == {"ab", "bc", "cd"}
    assert e.explain(c, b) == {"bc"}
    assert e.explain(a, a) == set()


def test_explain_nested_congruence_ackermann():
    # f(f(f(a))) = a, f(f(f(f(f(a))))) = a |= f(a) = a, and both
    # equations are needed; the unrelated b = c is not.
    f = fun("f", 1)
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")

    def fn(t, n):
        for _ in range(n):
            t = tm.mk_app(f, [t])
        return t

    e.assert_eq(fn(a, 3), a, "f3")
    e.assert_eq(b, c, "bc")
    e.assert_eq(fn(a, 5), a, "f5")
    e.assert_ne(fn(a, 1), a, "ne")
    assert not e.check()
    assert e.explain(fn(a, 1), a) == {"f3", "f5"}
    assert e.conflict() == {"f3", "f5", "ne"}


def test_explain_predicate_clash_through_true_false():
    p = tm.FunSym("p", [OBJ], BOOL)
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_pred(tm.mk_app(p, [a]), True, "pa")
    e.assert_pred(tm.mk_app(p, [c]), True, "pc")
    e.assert_pred(tm.mk_app(p, [b]), False, "not pb")
    e.assert_eq(a, b, "ab")
    assert not e.check()
    assert e.conflict() == {"pa", "not pb", "ab"}


def test_explain_disequality_conflict_cites_the_disequality():
    g = fun("g", 2)
    e = EufSolver()
    a, b, c, d = obj("a"), obj("b"), obj("c"), obj("d")
    e.assert_eq(a, c, "ac")
    e.assert_ne(a, d, "unrelated")
    e.assert_eq(b, d, "bd")
    e.assert_ne(tm.mk_app(g, [a, b]), tm.mk_app(g, [c, d]), "ne")
    assert not e.check()
    assert e.conflict() == {"ac", "bd", "ne"}


def test_explain_after_undo_drops_retracted_reasons():
    f = fun("f", 1)
    e = EufSolver(undoable=True)
    a, b, c = obj("a"), obj("b"), obj("c")
    fa, fc = tm.mk_app(f, [a]), tm.mk_app(f, [c])
    e.assert_eq(a, b, "ab")
    e._settle()
    mark = e.mark()
    e.assert_eq(b, c, "bc")
    e.assert_ne(fa, fc, "ne")
    assert not e.check()
    assert e.conflict() == {"ab", "bc", "ne"}
    e.undo_to(mark)
    # a and c are now equal for a different reason.
    e.assert_eq(a, obj("m"), "am")
    e.assert_eq(obj("m"), c, "mc")
    e.assert_ne(fa, fc, "ne2")
    assert not e.check()
    assert e.conflict() == {"am", "mc", "ne2"}
    assert e.explain(a, b) == {"ab"}


def test_explain_rejects_terms_that_are_not_equal():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b, "ab")
    e.find(c)
    assert e.check()
    with pytest.raises(ValueError):
        e.explain(a, c)
