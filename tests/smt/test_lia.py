"""Unit tests for the Omega-test LIA solver."""

import os
import random
import subprocess
import sys

import pytest

from repro.smt import lia
from repro.smt.lia import EQ, LE, NE, Constraint


def c(coeffs, const, rel=LE):
    return Constraint.make(coeffs, const, rel)


def assert_model_satisfies(constraints):
    result = lia.solve(constraints)
    assert result.sat
    model = {v: result.model.get(v, 0) for con in constraints for v in con.variables()}
    for con in constraints:
        assert con.holds(model), f"{con} fails under {model}"
    return model


def test_empty_system_sat():
    assert lia.solve([]).sat


def test_ground_true():
    assert lia.solve([c({}, -5)]).sat


def test_ground_false():
    assert not lia.solve([c({}, 1)]).sat


def test_single_bound():
    # x <= 7
    model = assert_model_satisfies([c({"x": 1}, -7)])
    assert model["x"] <= 7


def test_interval():
    # 3 <= x <= 7
    model = assert_model_satisfies([c({"x": 1}, -7), c({"x": -1}, 3)])
    assert 3 <= model["x"] <= 7


def test_empty_interval_unsat():
    # x <= 2 and x >= 3
    assert not lia.solve([c({"x": 1}, -2), c({"x": -1}, 3)])


def test_equality_simple():
    model = assert_model_satisfies([c({"x": 1}, -4, EQ)])
    assert model["x"] == 4


def test_equality_gcd_unsat():
    # 2x = 1 has no integer solution.
    assert not lia.solve([c({"x": 2}, -1, EQ)])


def test_equality_gcd_sat():
    # 2x = 6
    model = assert_model_satisfies([c({"x": 2}, -6, EQ)])
    assert model["x"] == 3


def test_two_variable_equality_chain():
    # x = y + 1, y = 5
    model = assert_model_satisfies(
        [c({"x": 1, "y": -1}, -1, EQ), c({"y": 1}, -5, EQ)]
    )
    assert model["x"] == 6 and model["y"] == 5


def test_nat_style_constraints():
    # val >= 0 && val = n - 1 && n >= 0: the ZNat succ body.
    model = assert_model_satisfies(
        [
            c({"val": -1}, 0),
            c({"val": 1, "n": -1}, 1, EQ),
            c({"n": -1}, 0),
        ]
    )
    assert model["val"] == model["n"] - 1


def test_paper_extraction_example():
    # y >= 0 && x+1 = y && x > 0 is satisfiable exactly when y > 1.
    base = [c({"y": -1}, 0), c({"x": 1, "y": -1}, 1, EQ), c({"x": -1}, 1)]
    assert lia.solve(base)
    # With y = 1 it must become unsat.
    assert not lia.solve(base + [c({"y": 1}, -1, EQ)])
    # With y = 2 it is sat.
    assert_model_satisfies(base + [c({"y": 1}, -2, EQ)])


def test_disequality_split():
    # 0 <= x <= 1 and x != 0 forces x = 1.
    model = assert_model_satisfies(
        [c({"x": -1}, 0), c({"x": 1}, -1), c({"x": 1}, 0, NE)]
    )
    assert model["x"] == 1


def test_disequality_unsat():
    # x = 3 and x != 3.
    assert not lia.solve([c({"x": 1}, -3, EQ), c({"x": 1}, -3, NE)])


def test_multiple_disequalities():
    # 0 <= x <= 3, x != 0, x != 1, x != 2 forces x = 3.
    cons = [c({"x": -1}, 0), c({"x": 1}, -3)]
    cons += [c({"x": 1}, -k, NE) for k in (0, 1, 2)]
    model = assert_model_satisfies(cons)
    assert model["x"] == 3


def test_all_values_excluded_unsat():
    cons = [c({"x": -1}, 0), c({"x": 1}, -2)]
    cons += [c({"x": 1}, -k, NE) for k in (0, 1, 2)]
    assert not lia.solve(cons)


def test_non_unit_coefficients_dark_shadow():
    # 2x >= 5 and 2x <= 7 has x = 3.
    model = assert_model_satisfies([c({"x": -2}, 5), c({"x": 2}, -7)])
    assert model["x"] == 3


def test_non_unit_coefficients_unsat():
    # 2x >= 5 and 2x <= 5: no integer x.
    assert not lia.solve([c({"x": -2}, 5), c({"x": 2}, -5)])


def test_pugh_equality_elimination():
    # 3x + 5y = 1 is solvable over Z.
    model = assert_model_satisfies([c({"x": 3, "y": 5}, -1, EQ)])
    assert 3 * model["x"] + 5 * model["y"] == 1


def test_pugh_with_bounds():
    # 3x + 5y = 1, 0 <= x <= 10, 0 <= y: x=2,y=-1 invalid; needs x=7,y=-4 no...
    # solutions: x = 2 + 5t, y = -1 - 3t; with x,y >= 0 -> no solution
    cons = [
        c({"x": 3, "y": 5}, -1, EQ),
        c({"x": -1}, 0),
        c({"y": -1}, 0),
    ]
    assert not lia.solve(cons)


def test_pugh_with_feasible_bounds():
    # 3x + 5y = 21 with x, y >= 0: x=7,y=0 or x=2,y=3.
    cons = [
        c({"x": 3, "y": 5}, -21, EQ),
        c({"x": -1}, 0),
        c({"y": -1}, 0),
    ]
    model = assert_model_satisfies(cons)
    assert 3 * model["x"] + 5 * model["y"] == 21


def test_entails_eq():
    cons = [c({"x": 1, "y": -1}, 0, EQ)]
    assert lia.entails_eq(cons, "x", "y")
    assert not lia.entails_eq([], "x", "y")


def test_entails_eq_via_bounds():
    # x <= y and y <= x entails x = y.
    cons = [c({"x": 1, "y": -1}, 0), c({"y": 1, "x": -1}, 0)]
    assert lia.entails_eq(cons, "x", "y")


def test_entails_eq_names_the_constraints_that_force_it():
    # x <= y and y <= x force x = y; the bound on z plays no part.
    forcing = [c({"x": 1, "y": -1}, 0), c({"y": 1, "x": -1}, 0)]
    idle = c({"z": 1}, -4)
    why = lia.entails_eq(forcing + [idle], "x", "y")
    assert set(why) == set(forcing)


def assert_core(constraints):
    """The UNSAT answer's core is a subset of the input, UNSAT alone."""
    result = lia.solve(constraints)
    assert not result
    assert set(result.core) <= set(constraints)
    assert not lia.solve(list(result.core))
    return result.core


def test_core_drops_unrelated_constraints():
    # x <= 2 and x >= 3 clash; y and z are bystanders.
    clash = [c({"x": 1}, -2), c({"x": -1}, 3)]
    bystanders = [c({"y": 1, "z": -1}, 0), c({"z": 1}, -9, NE)]
    core = assert_core(bystanders[:1] + clash + bystanders[1:])
    assert set(core) == set(clash)


def test_core_through_equality_substitution():
    # x = y + 1, y = 2, x <= 2: every step of the chain is in the core.
    chain = [c({"x": 1, "y": -1}, -1, EQ), c({"y": 1}, -2, EQ), c({"x": 1}, -2)]
    core = assert_core(chain + [c({"z": 1}, 0)])
    assert set(core) == set(chain)


def test_core_through_splinters():
    # Pugh's example: 27 <= 11x + 13y <= 45 and -10 <= 7x - 9y <= 4 have
    # real but no integer solutions; the dark shadow is empty, so only
    # the splinters refute it.
    system = [
        c({"x": -11, "y": -13}, 27), c({"x": 11, "y": 13}, -45),
        c({"x": -7, "y": 9}, -10), c({"x": 7, "y": -9}, -4),
    ]
    core = assert_core(system + [c({"w": 1}, -1)])
    assert set(core) == set(system)


def test_disequality_split_backjumps_over_unused_splits():
    # x <= 0 and x >= 1 clash whatever the 24 disequalities say; without
    # backjumping their eager split would explore 2^24 branches.
    clash = [c({"x": 1}, 0), c({"x": -1}, 1)]
    nes = [c({"y": 1}, -k, NE) for k in range(24)]
    core = assert_core(nes + clash)
    assert set(core) == set(clash)


def test_disequality_in_the_core_when_needed():
    # 0 <= x <= 1, x != 0, x != 1: both splits are needed.
    cons = [c({"x": -1}, 0), c({"x": 1}, -1), c({"x": 1}, 0, NE), c({"x": 1}, -1, NE)]
    core = assert_core(cons + [c({"y": 1}, 0, NE)])
    assert set(core) == set(cons)


# Under some hash seeds the elimination order of this system needs more
# than _SPLINTER_LIMIT splinters; x = -2, y = 5 satisfies it.
_SPLINTER_CAP_PROGRAM = """
from repro.smt import lia
from repro.smt.lia import Constraint

system = [
    Constraint.make({"x": -7802, "y": -857}, -16497),
    Constraint.make({"x": 6352, "y": 3456}, -5407),
    Constraint.make({"x": -7546, "y": -8413}, 19282),
    Constraint.make({"x": 1}, -40),
    Constraint.make({"x": -1}, -40),
    Constraint.make({"y": 1}, -40),
    Constraint.make({"y": -1}, -40),
]
assert all(con.holds({"x": -2, "y": 5}) for con in system)
try:
    result = lia.solve(system)
except lia.SplinterLimit:
    print("unknown")
else:
    if result:
        assert all(con.holds(result.model) for con in system)
    print("sat" if result else "unsat")
"""


@pytest.mark.parametrize("hash_seed", ["1", "5"])
def test_splinter_cap_gives_unknown_not_unsat(hash_seed):
    import repro

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _SPLINTER_CAP_PROGRAM],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() in ("sat", "unknown")


def test_splinter_cap_ends_the_query_as_unknown():
    # The solver reports a BudgetExceeded query as UNKNOWN.
    from repro.smt.budget import BudgetExceeded

    assert issubclass(lia.SplinterLimit, BudgetExceeded)


@pytest.mark.parametrize("seed", range(15))
def test_random_small_systems_vs_enumeration(seed):
    rng = random.Random(seed)
    vars_ = ["x", "y", "z"][: rng.randint(1, 3)]
    cons = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: rng.randint(-3, 3) for v in vars_}
        const = rng.randint(-6, 6)
        rel = rng.choice([LE, EQ, NE])
        cons.append(c(coeffs, const, rel))
    # Keep the search bounded so enumeration is exact within the box.
    for v in vars_:
        cons.append(c({v: 1}, -5))
        cons.append(c({v: -1}, -5))

    def enumerate_sat():
        from itertools import product

        for values in product(range(-5, 6), repeat=len(vars_)):
            model = dict(zip(vars_, values))
            if all(con.holds({**model, **{v: 0 for con2 in cons for v in con2.variables() if v not in model}}) for con in cons):
                return True
        return False

    expected = enumerate_sat()
    result = lia.solve(cons)
    assert bool(result) == expected
    if result:
        model = {v: result.model.get(v, 0) for v in vars_}
        for con in cons:
            assert con.holds(model)
