"""Acceptance suite: one test per published criterion, each printing a
pass/fail line.  Tolerances are exact (all arithmetic is exact); the first
three criteria also carry wall-clock budgets."""

import random
import time

from posetrep import verify as V
from posetrep.differentiation import derive_poset, nu_count
from posetrep.linalg import Field
from posetrep.oracle import EnumConfig, cross_check_nu
from posetrep.poset import derived_carrier
from posetrep.sspace import hom_dim, simple_filter_space

from helpers import antichain_poset, chain, example510, poset_112

SEED = V.DEFAULT_SEED
F2 = Field.prime(2)


def report(n, ok, label):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {n}: {label}"


def run_check(n, fn, cases, label):
    outcome = fn(random.Random(SEED), cases)
    detail = "" if outcome.ok else f" first failure: {outcome.failures[0]}"
    report(n, outcome.ok, f"{label} [{outcome.cases} cases]{detail}")


def test_criterion_1_example_510_reproduction():
    start = time.time()
    derived = derive_poset(example510(), "p", "filter").result
    elapsed = time.time() - start
    ok = (set(derived.elements) == {"a", "b", "c", "d", "f", "d^f"}
          and derived.covers() == [("d^f", "d"), ("d^f", "f")]
          and elapsed < 1.0)
    report(1, ok, f"derived poset of the worked example ({elapsed:.3f}s)")


def test_criterion_2_nu_three_antichain():
    start = time.time()
    p = antichain_poset("x", "y", "z")
    trace = nu_count(p)
    parts_ok = (trace.status == "ok" and trace.nu == 9
                and trace.terminal_count == 5
                and [s.nonempty_antichains for s in trace.steps] == [3])
    reportobj = cross_check_nu(p, EnumConfig(p, 2, 2))
    oracle_ok = reportobj.oracle_total == 9 and reportobj.complete
    elapsed = time.time() - start
    report(2, parts_ok and oracle_ok and elapsed < 10.0,
           f"nu = 9 = 5+3+1 and the F2 census agrees ({elapsed:.2f}s)")


def charged_step(p, point):
    """(derived poset, antichain charge + 1) for one filter-mode step."""
    rest = p.restrict([s for s in p.elements if s not in p.up(point)])
    return (derive_poset(p, point, "filter").result,
            len(rest.antichains()[1:]) + 1)


def test_criterion_3_path_independence_112():
    start = time.time()
    p = poset_112()
    # order one: start at x; the derived poset has width 2 already
    s_x, charge_x = charged_step(p, "x")
    assert s_x.width() <= 2
    value_one = len(s_x.antichains()) + charge_x
    # order two: start at u; the derived poset still has width 3, go on at v
    s_u, charge_u = charged_step(p, "u")
    assert s_u.width() == 3
    s_uv, charge_v = charged_step(s_u, "v")
    assert s_uv.width() <= 2
    value_two = len(s_uv.antichains()) + charge_v + charge_u
    both = nu_count(p, strategy="all-paths")
    reportobj = cross_check_nu(p, EnumConfig(p, 2, 3))
    elapsed = time.time() - start
    ok = (value_one == 15 and value_two == 15
          and both.status == "ok" and both.nu == 15
          and reportobj.oracle_total == 15 and reportobj.complete
          and elapsed < 60.0)
    report(3, ok, f"nu(1,1,2) = 15 along both orders, census at dim <= 3 agrees ({elapsed:.2f}s)")


def test_criterion_4_functor_identity_suite():
    run_check(4, V.check_functor_identities, 500,
              "res/ind/coind, carrier composite, adjunction, duality squares")


def test_criterion_5_differentiation_dual_implementation():
    run_check(5, V.check_diff_composite, 500,
              "direct formulas equal the three-functor composite")


def test_criterion_6_hom_dimension_quotient_law():
    run_check(6, V.check_hom_quotient_law, 500,
              "dim Hom drops by the factor ideal, both modes")


def test_criterion_7_duality_commutation():
    out1 = V.check_duality_commutation(random.Random(SEED), 200)
    out2 = V.check_minmax_square(random.Random(SEED), 100)
    ok = out1.ok and out2.ok
    detail = "" if ok else f" {out1.failures[:1]} {out2.failures[:1]}"
    report(7, ok, f"explicit dual-quotient iso is natural; differentiation "
                  f"square commutes [{out1.cases}+{out2.cases} cases]{detail}")


def test_criterion_8_projectivization_fixed_points():
    run_check(8, V.check_projectivization_fixed_points, 150,
              "coinduction lands on projectives with res/coind fixed points")


def test_criterion_9_semisimple_census():
    outcome = V.check_simples_census(random.Random(SEED), 0)
    two_chain = chain("s", "t")
    # the nonempty antichains, and the empty one as the top of the meet order
    sl = derived_carrier(two_chain, [], "filter")[0].adjoin_top("{}")
    pairs = sum(1 for a in sl.elements for b in sl.elements if sl.leq(b, a))
    simples = [simple_filter_space(two_chain, F2, a) for a in two_chain.antichains()]
    end_dim = sum(hom_dim(a, b) for a in simples for b in simples)
    ok = outcome.ok and pairs == 6 and end_dim == 6
    detail = "" if outcome.ok else f" first failure: {outcome.failures[0]}"
    report(9, ok, f"width <= 2 censuses and End(U) incidence dimensions "
                  f"[{outcome.cases} checks]{detail}")


def test_criterion_10_psi_phi_bridge():
    out1 = V.check_psi_phi(random.Random(SEED), 500)
    out2 = V.check_projective_cover_minimal(random.Random(SEED), 100)
    ok = out1.ok and out2.ok
    detail = "" if ok else f" {out1.failures[:1]} {out2.failures[:1]}"
    report(10, ok, f"phi.psi identity, socle-projectivity, minimal covers "
                   f"[{out1.cases}+{out2.cases} cases]{detail}")
