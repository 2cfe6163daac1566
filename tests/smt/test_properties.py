"""Property-based tests (hypothesis) on the SMT substrate's invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import lia
from repro.smt import terms as tm
from repro.smt.sat import FALSE_VAL, TRUE_VAL, SatSolver
from repro.smt.sorts import BOOL, INT, OBJ
from repro.smt.theory import TheoryContext, check_literals
from repro.verify import fir
from repro.verify.fir import FAtom, assume, fand, for_, fresh, negate

# ---------------------------------------------------------------------------
# SAT: agreement with brute force, model validity
# ---------------------------------------------------------------------------

clauses_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=14,
)


def brute_force(num_vars, clauses):
    from itertools import product

    for bits in product([False, True], repeat=num_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in c) for c in clauses):
            return True
    return False


@given(clauses_strategy)
@settings(max_examples=150, deadline=None)
def test_sat_agrees_with_brute_force(clauses):
    solver = SatSolver()
    ok = True
    for c in clauses:
        ok = solver.add_clause(list(c)) and ok
    result = ok and solver.solve()
    assert result == brute_force(6, clauses)
    if result:
        for c in clauses:
            assert any(
                solver.value(abs(l)) == (TRUE_VAL if l > 0 else FALSE_VAL)
                for l in c
            )


# ---------------------------------------------------------------------------
# LIA: models satisfy constraints; UNSAT agrees with bounded enumeration
# ---------------------------------------------------------------------------

constraint_strategy = st.builds(
    lambda coeffs, const, rel: lia.Constraint.make(
        dict(zip("xyz", coeffs)), const, rel
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([lia.LE, lia.EQ, lia.NE]),
)


@given(st.lists(constraint_strategy, min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_lia_models_satisfy_constraints(constraints):
    # Box the variables so enumeration is total within the box.
    boxed = list(constraints)
    for v in "xyz":
        boxed.append(lia.Constraint.make({v: 1}, -6, lia.LE))
        boxed.append(lia.Constraint.make({v: -1}, -6, lia.LE))
    result = lia.solve(boxed)
    from itertools import product

    expected = any(
        all(c.holds(dict(zip("xyz", vals))) for c in boxed)
        for vals in product(range(-6, 7), repeat=3)
    )
    assert bool(result) == expected
    if result:
        model = {v: result.model.get(v, 0) for v in "xyz"}
        for c in boxed:
            assert c.holds(model)


@given(st.lists(constraint_strategy, min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_lia_monotone_under_strengthening(constraints):
    # Adding constraints can never turn UNSAT into SAT.
    if not lia.solve(constraints):
        stronger = constraints + [lia.Constraint.make({"x": 1}, 0, lia.LE)]
        assert not lia.solve(stronger)


@given(st.lists(constraint_strategy, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_lia_unsat_core_is_an_unsat_subset(constraints):
    result = lia.solve(constraints)
    if not result:
        assert set(result.core) <= set(constraints)
        assert not lia.solve(list(result.core))


# ---------------------------------------------------------------------------
# Theory combination: every conflict is an inconsistent subset of its input
# ---------------------------------------------------------------------------

_F = tm.FunSym("f", [OBJ], OBJ)
_H = tm.FunSym("h", [INT], OBJ)
_G = tm.FunSym("g", [OBJ], INT)
_P = tm.FunSym("p", [OBJ], BOOL)
_OBJS = [tm.mk_var(n, OBJ) for n in "ab"]
_OBJS += [tm.mk_app(_F, [o]) for o in _OBJS]
_INTS = [tm.mk_var(n, INT) for n in "xy"]
_OBJS += [tm.mk_app(_H, [i]) for i in _INTS]
_INTS += [tm.mk_app(_G, [o]) for o in _OBJS[:3]]
_INTS += [tm.mk_int(k) for k in (0, 1)]

_atoms = st.one_of(
    st.builds(tm.mk_eq, st.sampled_from(_OBJS), st.sampled_from(_OBJS)),
    st.builds(tm.mk_eq, st.sampled_from(_INTS), st.sampled_from(_INTS)),
    st.builds(tm.mk_le, st.sampled_from(_INTS), st.sampled_from(_INTS)),
    st.builds(lambda o: tm.mk_app(_P, [o]), st.sampled_from(_OBJS)),
)
_literal_lists = st.lists(
    st.tuples(_atoms, st.booleans()), min_size=2, max_size=12
).map(
    # Theory literals are atoms with a polarity; mk_eq and mk_le may fold an
    # atom to a constant, which the solver never hands the theory layer.
    lambda lits: sorted(
        {a: v for a, v in lits if a.kind != tm.BOOL_CONST}.items(),
        key=lambda kv: kv[0]._id,
    )
)


def _assert_sound_conflict(outcome, literals):
    if outcome.consistent:
        return
    core = outcome.conflict
    assert core, "a conflict names at least one literal"
    assert set(core) <= set(literals)
    assert not check_literals(core).consistent, core


@given(_literal_lists)
@settings(max_examples=300, deadline=None)
def test_theory_conflict_is_an_inconsistent_subset(literals):
    _assert_sound_conflict(check_literals(literals), literals)


@given(
    _literal_lists,
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 2**12 - 1)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=150, deadline=None)
def test_theory_context_conflicts_survive_undo(pool, picks):
    # One persistent context over a sequence of literal sets drawn from
    # one pool: each keeps a prefix of the pool (so consecutive checks
    # share a prefix of varying length) plus a subset of the rest, so
    # each check undoes part of the previous one, reason records included.
    context = TheoryContext()
    for keep, subset in picks:
        literals = pool[:keep] + [
            lit for i, lit in enumerate(pool[keep:]) if subset >> i & 1
        ]
        outcome = context.check(literals)
        assert outcome.consistent == check_literals(literals).consistent
        _assert_sound_conflict(outcome, literals)


# ---------------------------------------------------------------------------
# F IR: negate is an involution and respects assume; fresh renames apart
# ---------------------------------------------------------------------------

def f_strategy():
    atoms = st.builds(
        lambda name, neg: FAtom(tm.mk_var(name, OBJ if name < "c" else INT).sort == INT
                                and tm.mk_le(tm.mk_var(name, INT), tm.mk_int(0))
                                or tm.mk_eq(tm.mk_var(name, OBJ), tm.mk_var(name + "2", OBJ)),
                                neg),
        st.sampled_from(["a", "b", "c", "d"]),
        st.booleans(),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(lambda a, b: fand(a, b), children, children),
            st.builds(lambda a, b: for_(a, b), children, children),
            st.builds(
                lambda a, b: assume(a, b, frozenset({tm.fresh_var("u", INT)})),
                children,
                children,
            ),
        ),
        max_leaves=8,
    )


@given(f_strategy())
@settings(max_examples=150, deadline=None)
def test_negate_is_an_involution(f):
    assert negate(negate(f)).to_term() is f.to_term()


@given(f_strategy())
@settings(max_examples=100, deadline=None)
def test_negate_preserves_assume_premises(f):
    # Collect assume premises before and after negation: identical.
    def premises(node, out):
        if isinstance(node, fir.FAssume):
            out.append(node.premise.to_term())
            premises(node.body, out)
        elif isinstance(node, (fir.FAnd, fir.FOr)):
            for item in node.items:
                premises(item, out)

    before: list = []
    after: list = []
    premises(f, before)
    premises(negate(f), after)
    assert before == after


@given(f_strategy())
@settings(max_examples=100, deadline=None)
def test_fresh_renames_unknowns_apart(f):
    renamed = fresh(f)
    assert renamed.unknowns().isdisjoint(f.unknowns()) or not f.unknowns()


# ---------------------------------------------------------------------------
# Terms: builders normalise deterministically
# ---------------------------------------------------------------------------

int_expr = st.recursive(
    st.one_of(
        st.integers(min_value=-20, max_value=20).map(tm.mk_int),
        st.sampled_from("xyz").map(lambda n: tm.mk_var(n, INT)),
    ),
    lambda children: st.one_of(
        st.builds(tm.mk_add, children, children),
        st.builds(tm.mk_sub, children, children),
        st.builds(lambda c, t: tm.mk_mul(tm.mk_int(c), t),
                  st.integers(min_value=-3, max_value=3), children),
    ),
    max_leaves=6,
)


@given(int_expr, st.dictionaries(st.sampled_from("xyz"),
                                 st.integers(min_value=-10, max_value=10),
                                 min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_term_builders_preserve_arithmetic_meaning(expr, env):
    from repro.smt.solver import eval_int
    from repro.smt.theory import TheoryModel

    model = TheoryModel(int_values={tm.mk_var(k, INT): v for k, v in env.items()})

    def reference(t):
        if t.kind == tm.INT_CONST:
            return t.payload
        if t.kind == tm.VAR:
            return env[t.payload]
        if t.kind == tm.ADD:
            return sum(reference(a) for a in t.args)
        if t.kind == tm.MUL:
            out = 1
            for a in t.args:
                out *= reference(a)
            return out
        raise AssertionError(t.kind)

    assert eval_int(expr, model) == reference(expr)


@given(int_expr, int_expr)
@settings(max_examples=100, deadline=None)
def test_interning_makes_equal_structure_identical(a, b):
    # Building the same shape twice yields the same object.
    rebuilt = tm.mk_add(a, b)
    again = tm.mk_add(a, b)
    assert rebuilt is again
