"""Differential test of how the hereditary predicate locates a query.

`hereditary_predicate` must find, for a query x, the exponent k >= 0 with
x = beta^k (or learn that there is none) before it scores the residue
a = k mod m and the depth j = k // m.  The oracle is the residue search the
predicate once ran, written out below: for each a < m it divides x by
beta^a and asks the power predicate of gamma = beta^m for the exponent of
the quotient.  The predicate's `explain` must report the same exponent
(or "not a power of beta"), and its value must be [k in I].
"""

from fractions import Fraction as F
from typing import Optional

import pytest

from gpnf.constructions import (IndexSet, PisotSetSpec, hereditary_predicate,
                                power_set_predicate)
from gpnf.numberfield import NumberField


# -- the oracle: one power predicate of gamma = beta^m per residue ------------

def residue_search(spec: PisotSetSpec):
    """locate(x) -> (a, j) with x = beta^a gamma^j, 0 <= a < m, or None."""
    f, beta, m = spec.field, spec.beta, spec.m
    gamma_pred = power_set_predicate(beta ** m)
    binv = beta.inverse()
    beta_inv_pows = [binv ** a for a in range(m)]

    def locate(x) -> Optional[tuple]:
        x = f.element(x)
        for a in range(m):
            k = gamma_pred.exponent_of(x * beta_inv_pows[a])
            if k is not None:
                return a, k
        return None

    return locate


FIELDS = {
    # x^3 - x^2 - x - 1, tribonacci: m = 21 at the default rho
    "tribonacci": ([-1, -1, -1, 1], 21),
    # x^3 - x - 1, plastic: m = 41 at the default rho
    "plastic": ([-1, -1, 0, 1], 41),
}


@pytest.fixture(scope="module", params=sorted(FIELDS))
def case(request):
    minpoly, m = FIELDS[request.param]
    K = NumberField(minpoly)
    specs = [PisotSetSpec.create(K.beta, I)
             for I in (IndexSet.periodic(3, [1]),
                       IndexSet.finite([0, 5, m + 1, 2 * m]))]
    assert all(spec.m == m for spec in specs)
    return K, specs


def queries(K, m):
    """Powers of beta from beta^-3 past the depth j = 2, their negatives
    and doubles, and non-units."""
    b = K.beta
    binv = b.inverse()
    out = []
    for e in range(-3, 2 * m + 3):
        p = b ** e if e >= 0 else binv ** -e
        out += [(p, e), (-p, None), (2 * p, None)]
    out += [(K.element(3), None), (b + 2, None), (b * F(1, 2), None),
            (K.zero, None)]
    return out


def test_hereditary_locate_matches_the_residue_search(case):
    K, specs = case
    for spec in specs:
        pred = hereditary_predicate(spec)
        locate = residue_search(spec)
        for x, e in queries(K, spec.m):
            loc = locate(x)
            k = None if loc is None else loc[0] + loc[1] * spec.m
            # the oracle finds exactly the nonnegative powers
            assert k == (e if e is not None and e >= 0 else None), (x, e)
            got = pred.explain(x)
            assert got.get("exponent") == k, (x, e)
            want = 0 if k is None else int(spec.indices.contains(k))
            assert got["value"] == pred(x) == want, (x, e)
