#!/usr/bin/env python3
"""Walk through the coupled two-chain example end to end.

The operator

    T = [[ i, 2],
         [ 0, -i]]

has the two unimodular eigenvalues i and -i, yet its generalized
eigenvectors are not orthogonal.  The script prints the orbit norms, the
inner-product lattice of the two chains, the failed strict-order search,
the orthogonality analysis and the refused decomposition, then contrasts
all of it with an honest orthogonal block sum.

Run:  python3 scripts/worked_example.py
"""

import os
import sys
from itertools import islice

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from misolab import (  # noqa: E402
    format_rational,
    DenseOperator,
    JordanSpec,
    Scalar,
    algebraic_decompose,
    direct_sum,
    jordan_matrix,
    jordan_pair_equivalences,
    orbit,
    ortho_test_generalized,
    strict_order,
    vec_add,
    vec_from_ints,
    vec_inner,
    vec_norm_sq,
)

ONE = Scalar.exact(1)
I_ = Scalar.exact(0, 1)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    T = DenseOperator([[I_, Scalar.exact(2)], [Scalar.exact(0), -I_]])
    h1 = (ONE, Scalar.exact(0))          # eigenvector at  i
    h2 = (I_, ONE)                       # eigenvector at -i

    banner("Orbit of h1 + h2 has constant squared norm 3")
    for n, w in enumerate(islice(orbit(T, vec_add(h1, h2)), 8)):
        print(f"  ||T^{n}(h1+h2)||^2 = {format_rational(vec_norm_sq(w))}")

    banner("Inner products <T^k h1, T^l h2> = -i^(k+l+1)")
    p1, p2 = list(islice(orbit(T, h1), 4)), list(islice(orbit(T, h2), 4))
    for k in range(4):
        row = "  ".join(format_rational(vec_inner(p1[k], p2[l])).rjust(5)
                        for l in range(4))
        print(f"  k={k}:  {row}")
    print("  -> never zero: the two chains are nowhere orthogonal")

    banner("Strict-order search up to m = 9 fails")
    v = strict_order(T, m_max=9)
    print(f"  strict = {v.strict}, searched through m = {v.m}")

    banner("Orthogonality analysis of the eigenvector pair")
    res = ortho_test_generalized(T, h1, h2, I_, -I_)
    print(f"  case                 : {res.case}")
    print(f"  orbit polynomial     : {res.orbit_polynomial}")
    print(f"  Re<.,.> vanishes     : {res.re_inner_vanishes}")
    print(f"  mixed inner vanishes : {res.mixed_inner_vanishes}")
    print(f"  real part only       : {res.re_only}")
    print(f"  agrees with theory   : {res.agrees_with_theory}")

    banner("Five pairwise equivalences, all simultaneously false")
    rep = jordan_pair_equivalences(T, h1, h2, I_, -I_)
    names = ("cross_gram_zero", "translate_orbits_polynomial",
             "one_sided_polynomial", "sampled_pairs_polynomial",
             "restriction_is_isometry")
    for name, value in zip(names, rep.conditions()):
        print(f"  {name}: {value}")
    print(f"  all agree: {rep.all_agree}")

    banner("Decomposition is refused")
    dec = algebraic_decompose(T, eigen_hints=(I_, -I_))
    print(f"  certified: {dec.certified}")
    for f in dec.failures:
        print(f"  reason   : {f}")

    banner("Contrast: an orthogonal block sum is certified")
    S = direct_sum(jordan_matrix(JordanSpec(I_, 2)),
                   jordan_matrix(JordanSpec(-I_, 1)))
    dec = algebraic_decompose(S, eigen_hints=(I_, -I_))
    v = strict_order(S)
    print(f"  certified: {dec.certified}, predicted order "
          f"{dec.predicted_strict_order}, measured order {v.m}")
    h1 = vec_from_ints([0, 1, 0])
    h2 = vec_from_ints([0, 0, 1])
    rep = jordan_pair_equivalences(S, h1, h2, I_, -I_)
    print(f"  equivalences on a cyclic pair: all true = {all(rep.conditions())}, "
          f"restricted order {rep.restricted_order}")


if __name__ == "__main__":
    main()
