"""Exact truncated series arithmetic: the carrier for everything else.

A series stores int numerators over one shared denominator and hands its
coefficients out as fractions.Fraction values, so results are identities
through the truncation order, not approximations.  A series is built from
ints; a rational enters it by scalar multiplication with a Fraction.
"""

from fractions import Fraction

from sptlab import Series, monomial, one, poch
from sptlab.series import residue

N = 16

print("== geometric series ==")
g = (one(N) - monomial(1, 1, N)).invert()
print("1/(1-q) =", g)

print()
print("== Euler product and the pentagonal pattern ==")
euler = poch(1, 1, 1, None, N)  # (q;q)_inf
print("(q;q)_inf =", euler)
print("nonzero exponents:", [k for k, c in enumerate(euler.coeffs) if c])
print("(exponents k(3k-1)/2 for k = 0, ±1, ±2, ...)")

print()
print("== partition numbers by inversion, and by dividing out binomials ==")
inv = euler.invert()
print("1/(q;q)_inf coefficients:", [int(c) for c in inv.coeffs])
print("(these are p(0), p(1), p(2), ...)")
by_binomials = one(N).qmul(1, 1, 1, None, -1)  # divide by each (1 - q^e) in place
print("1/(q;q)_inf by qmul:     ", [int(c) for c in by_binomials.coeffs])
print("same as euler.invert():", by_binomials == inv)

print()
print("== rational coefficients stay exact ==")
f = Series([4, 2, -3], order=6) * Fraction(1, 4)  # 1 + q/2 - 3q^2/4
print("f            =", f)
print("f^2          =", f * f)
print("f * f.invert() =", f * f.invert())

print()
print("== substitution q -> q^3 and reduction mod 3 ==")
sub = inv.substitute_power(3)
print("p-series at q^3:", sub)
half = Series([2, 1]) * Fraction(1, 2)  # 1 + q/2
print("residues mod 3 of 1 + q/2:", tuple(residue(c, 3, k) for k, c in enumerate(half.coeffs)))
