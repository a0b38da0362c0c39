"""Acceptance gate: ten criteria, one pass/fail line each.

Exact-mode criteria use zero tolerance; float-mode reruns pin the verdict
tolerance at 1e-8 and the residual bound at 1e-6.
"""

from misolab import (
    DenseOperator,
    JordanSpec,
    Scalar,
    jordan_matrix,
    jordan_pair_equivalences,
    strict_order,
    vec_add,
    vec_inner,
    vec_norm_sq,
)
from misolab.suites import run_suite

SEED = 0
I_ = Scalar.exact(0, 1)
# each suite's check count at SEED, so that a check dropped or doubled shows
CHECKS = {"jordan-orders": 25, "newton-roundtrip": 200, "defect-consistency": 3600,
          "shift-factory": 780, "decomposition": 160, "perturbation": 90, "density": 10,
          "float-robustness": 1147}


def _report(criterion, passed, detail):
    line = f"criterion {criterion:>2}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


def _suite_criterion(criterion, suite_name, detail):
    res = run_suite(suite_name, SEED)
    extra = "" if res.passed else f"; first failure: {res.failures[0]}"
    _report(criterion, res.passed,
            f"{detail} ({res.checks} checks via suite {suite_name}{extra})")
    assert res.checks == CHECKS[suite_name]


def test_criterion_01_jordan_order_law():
    _suite_criterion(
        1, "jordan-orders",
        "strict order 2k-1 for unimodular Jordan blocks, k = 1..5, exact",
    )


def test_criterion_02_non_orthogonal_chain_example():
    T = DenseOperator([[I_, Scalar.exact(2)], [Scalar.exact(0), -I_]])
    h1 = (Scalar.exact(1), Scalar.exact(0))
    h2 = (I_, Scalar.exact(1))
    ok = True
    w = vec_add(h1, h2)
    for _ in range(21):
        ok = ok and vec_norm_sq(w) == Scalar.exact(3)
        w = T.apply(w)
    p1, p2 = [h1], [h2]
    for _ in range(6):
        p1.append(T.apply(p1[-1]))
        p2.append(T.apply(p2[-1]))
    i_pow = [Scalar.exact(1)]
    for _ in range(13):
        i_pow.append(i_pow[-1] * I_)
    for k in range(7):
        for l in range(7):
            ok = ok and vec_inner(p1[k], p2[l]) == -i_pow[k + l + 1]
    v = strict_order(T, m_max=9)
    ok = ok and (not v.strict) and v.m == 9
    rep = jordan_pair_equivalences(T, h1, h2, I_, -I_)
    ok = ok and rep.all_agree and not any(rep.conditions())
    _report(2, ok,
            "constant orbit 3, inner products -i^(k+l+1), "
            "not-within-bound(9), all five equivalences false, exact")


def test_criterion_03_single_chain_example():
    T = jordan_matrix(JordanSpec(I_, 2))
    h = (Scalar.exact(1), Scalar.exact(0))
    ok = True
    for _ in range(21):
        ok = ok and vec_norm_sq(h) == Scalar.exact(1)
        h = T.apply(h)
    _report(3, ok, "eigenvector orbit norm constant 1 for n = 0..20, exact")


def test_criterion_04_newton_calculus():
    _suite_criterion(
        4, "newton-roundtrip",
        "200 random polynomials: sample -> table -> reconstruct exactly, "
        "binomial form equals subtraction",
    )


def test_criterion_05_defect_consistency():
    _suite_criterion(
        5, "defect-consistency",
        "recurrence equals definitional sum (m <= 6) and difference row 0 "
        "equals the defect quadratic form on 100 random matrices",
    )


def test_criterion_06_shift_factory():
    _suite_criterion(
        6, "shift-factory",
        "generator polynomials yield (deg+1)-isometries, fail at deg, "
        "orbit norms p(n+j)/p(j) exact for n+j <= 24",
    )


def test_criterion_07_decomposition_equivalence():
    _suite_criterion(
        7, "decomposition",
        "60-operator corpus: certification iff orthogonal unimodular blocks, "
        "predicted order = strict order, certified orders odd",
    )


def test_criterion_08_perturbation():
    _suite_criterion(
        8, "perturbation",
        "30 commuting pairs: order bound m_A + 2(nu-1) holds, equality iff "
        "the strictness criterion fires",
    )


def test_criterion_09_float_robustness():
    _suite_criterion(
        9, "float-robustness",
        "criteria 1/2/6/7 rerun in float after unitary conjugation, "
        "tol 1e-8, residuals <= 1e-6",
    )


def test_criterion_10_degree_density():
    _suite_criterion(
        10, "density",
        "random vectors attain orbit degree m-1 in >= 49/50 draws for 10 "
        "strict m-isometries, m in {3,5,7}",
    )
