"""Bailey pairs as executable objects.

The J(1) pair from Slater's list drives everything: the defining relation
is machine-checked, the lemma is specialized numerically, and the
double-derivative identity turns the pair into the restricted
smallest-parts generating function.
"""

from dataclasses import replace

from sptlab import (
    derivative_identity_sides,
    lemma_sides,
    monomial,
    poch,
    slater_j1,
    spt23_series,
    verify_pair,
)

N = 24

print("== the J(1) tables ==")
pair = slater_j1(N, N)
for n in range(5):
    print(f"alpha_{n} =", pair.alpha[n])
print("beta_1 =", pair.beta[1])
print("beta_2 =", pair.beta[2])

print()
print("== defining relation ==")
print("verify_pair ->", verify_pair(pair, N), "(None means every n checked out)")

literal = replace(pair, alpha=(monomial(2, 0, N),) + pair.alpha[1:])
print("with alpha_0 = 2 instead ->", verify_pair(literal, N))
print("(fails immediately at n = 1: the relation pins alpha_0 = 1)")

print()
print("== Bailey's lemma at (z, y) = (-1, -1) ==")
lhs, rhs = lemma_sides(pair, N)
print("left side :", lhs)
print("right side:", rhs)
print("first difference:", lhs.equal_up_to(rhs, N))

print()
print("== derivative identity -> restricted smallest parts ==")
lhs9, rhs9 = derivative_identity_sides(pair, N)
print("sides agree:", lhs9.equal_up_to(rhs9, N) is None)
produced = lhs9 * poch(1, 3, 3, None, N).invert()
target = spt23_series(N)
print("left side / (q^3;q^3)_inf =", produced)
print("spt23 series              =", target)
print("identical:", produced.equal_up_to(target, N) is None)
