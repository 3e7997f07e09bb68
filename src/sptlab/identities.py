"""Identity registry and verification harness.

Every numbered claim the package implements is registered here as an
executable check (ids I1..I22) that only states its cases, in order:
(n, left, right) compared as exact rationals, or (n, left, right, 3) compared
3-adically, failing loudly on a side whose denominator is divisible by 3.
The harness compares them and stops at the first mismatch, so an oracle
stage yielded after a series stage runs only once the series cases agree.

Known errata are not hidden: where the literal form of a claim is wrong,
the corrected form is the registered check and the literal form runs as an
attached diagnostic that is expected to fail, with its first mismatch
recorded in the result.  A check registered with an erratum returns its
cases together with a function that returns the cases of the literal reading.
Every literal reading is built here from the corrected objects, so no
builder carries a switch for one.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain

from . import bailey, partitions, theta
from .series import NonIntegralError, Series, integral, lambert, monomial, one, poch, residue, zero

DEFAULT_ORDER = 60
DEFAULT_ORACLE_BOUND = 40
# Inputs past these caps would run for minutes or exhaust memory, so they are
# refused up front: p(60) = 966,467 partitions take seconds to walk, p(80)
# already 15.8 million; series work grows faster than the order squared, and
# order 2000 takes seconds.
MAX_ORACLE_BOUND = 60
MAX_ORDER = 2000
ORDER_ENV_VAR = "SPTLAB_ORDER"


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    description: str
    order: int = DEFAULT_ORDER


@dataclass
class IdentityResult:
    id: str
    status: str  # pass | fail | error
    order_checked: int
    runtime_ms: float
    first_mismatch: list | None
    diagnostic: dict | None = None

    def to_dict(self) -> dict:
        """The report entry: the fields in order, less those that are None."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _fmt(x) -> str:
    return str(Fraction(x))


def _non_integral(exc: NonIntegralError) -> list:
    return [exc.index, _fmt(exc.value), exc.requirement]


def _first_mismatch(cases) -> list | None:
    """The first case whose sides disagree, as [n, left, right], or None.

    A congruence mismatch shows the right side as "right (mod m)"; a value
    that is not integral where it must be shows as [n, value, requirement].
    """
    try:
        for n, left, right, *modulus in cases:
            if not modulus:
                if left != right:
                    return [n, _fmt(left), _fmt(right)]
            elif residue(left, *modulus, n) != residue(right, *modulus, n):
                return [n, _fmt(left), f"{_fmt(right)} (mod {modulus[0]})"]
    except NonIntegralError as exc:
        return _non_integral(exc)
    return None


def _coeffs(lhs: Series, rhs: Series, order: int):
    """The exact cases of a series pair: its coefficients through q^order."""
    return ((k, lhs[k], rhs[k]) for k in range(order + 1))


# ---------------------------------------------------------------------------
# the checks; each returns its cases (and, with an erratum, the literal ones)
# ---------------------------------------------------------------------------


def _chk_i1(order, bound):
    lhs = zero(order)
    tail = poch(1, 1, 1, None, order)  # (q^n;q)_inf, stepped up from n = 1
    for n in range(1, order + 1):
        lhs += 1 - tail
        tail = tail.qmul(1, n, 1, 1, -1)
    rhs = Series([0] + [partitions.sigma(0, n) for n in range(1, order + 1)])
    return _coeffs(lhs, rhs, order)


def _chk_i2(order, bound):
    lhs = partitions.spt_series(order)
    np_series = Series([n * partitions.p_count(n) for n in range(order + 1)])
    rhs = np_series - partitions.second_rank_moment_series(order) * Fraction(1, 2)
    return _coeffs(lhs, rhs, order)


def _chk_i3(order, bound):
    lhs = partitions.spt23_series(order)
    n2q3 = partitions.second_rank_moment_series(order).substitute_power(3)
    rhs = lambert(1, order).qmul(1, 3, 3, None, -1) - n2q3 * Fraction(1, 2)
    return _coeffs(lhs, rhs, order)


def _chk_i4(order, bound):
    def cases(pair):
        # verify_pair reports only the first disagreement, as (n, k, left, right)
        found = bailey.verify_pair(pair, order)
        return [] if found is None else [(found[0], found[2], found[3])]

    pair = bailey.slater_j1(8, order)
    # literal reading: the alpha formula taken at k = 0 too, so alpha_0 = 2
    return cases(pair), lambda: cases(
        replace(pair, alpha=(monomial(2, 0, order),) + pair.alpha[1:])
    )


def _chk_i5(order, bound):
    lhs, rhs = bailey.derivative_identity_sides(bailey.slater_j1_window(order), order)
    return _coeffs(lhs, rhs, order)


def _chk_i6(order, bound):
    lhs, rhs = bailey.lemma_sides(bailey.slater_j1_window(order), order)
    return _coeffs(lhs, rhs, order)


def _chk_i7(order, bound):
    lat, lam = theta.a_lattice(order), theta.a_lambert(order)
    # literal reading: the Lambert sum started at n = 1, which drops its
    # n = 0 terms 6q/(1-q) - 6q^2/(1-q^2)
    n0 = monomial(6, 1, order).qmul(1, 1, 1, 1, -1) - monomial(6, 2, order).qmul(1, 2, 1, 1, -1)
    return _coeffs(lat, lam, order), lambda: _coeffs(lat, lam - n0, order)


def _chk_i8(order, bound):
    lhs = (lambert(1, order) - lambert(3, order) * 3) * 12
    return _coeffs(lhs, Series(theta.lattice_table(order).R) - 1, order)


def _difference_series(order: int) -> Series:
    """spt23 series minus 3 times the plain spt series in q^3."""
    return (
        partitions.spt23_series(order)
        - partitions.spt_series(order).substitute_power(3) * 3
    )


def _chk_i9(order, bound):
    lhs = _difference_series(order)
    xi = partitions.xi_series(order)
    n2q3 = partitions.second_rank_moment_series(order).substitute_power(3)
    # erratum variant: 1/(q^3;q^3)_inf applied to the rank-moment term too,
    # which is how the right side reads if the tail sum is taken for
    # -1/2 sum N2(n) q^(3n) without its own Euler-product factor
    return _coeffs(lhs, xi + n2q3, order), lambda: _coeffs(
        lhs, xi + n2q3.qmul(1, 3, 3, None, -1), order
    )


def _chk_i10(order, bound):
    table = theta.lattice_table(order)
    return ((n, table.R[n], theta.R_closed(n)) for n in range(1, order + 1))


def _i11_cases(spt23_at, spt_at, xi_at, n2_at, upto):
    for n in range(1, upto + 1):
        if n % 3:
            yield n, spt23_at(n), xi_at(n)
        else:
            m = n // 3
            yield n, spt23_at(n), 3 * spt_at(m) + xi_at(n) + n2_at(m)


def _chk_i11(order, bound):
    s23 = partitions.spt23_series(order)
    spt_s = partitions.spt_series(order)
    xi = partitions.xi_series(order)
    n2 = partitions.second_rank_moment_series(order)
    yield from _i11_cases(s23.coeff, spt_s.coeff, xi.coeff, n2.coeff, order)
    xi_b = partitions.xi_series(bound)
    yield from _i11_cases(
        partitions.spt23, partitions.spt, xi_b.coeff, partitions.second_rank_moment, bound
    )


def _i12_cases(spt23_at, n2_at, table, upto):
    """The two branches of the P3 restatement: exact off multiples of 3, mod 3 on them."""
    for n in range(1, upto + 1):
        P3n = theta.p3_convolution(n, table)
        if n % 3:
            yield n, spt23_at(n), integral(Fraction(P3n, 12), n)
        else:
            m = n // 3
            # zero term of the convolution removed: R(0) p3(3m) = p(m)
            rhs = Fraction(P3n - partitions.p_count(m), 12) - Fraction(n2_at(m), 2)
            yield n, spt23_at(n), rhs, 3


def _chk_i12(order, bound):
    table = theta.lattice_table(max(order, bound))
    s23 = partitions.spt23_series(order)
    n2 = partitions.second_rank_moment_series(order)
    cases = chain(
        _i12_cases(s23.coeff, n2.coeff, table, order),
        _i12_cases(partitions.spt23, partitions.second_rank_moment, table, bound),
    )
    # literal congruence, with the zero term of the convolution kept: the
    # right side is not even 3-integral at n = 3 (P3(3)/12 = 13/12)
    return cases, lambda: (
        (3 * m, s23[3 * m], Fraction(theta.p3_convolution(3 * m, table), 12) - Fraction(n2[m], 2), 3)
        for m in range(1, order // 3 + 1)
    )


def _chk_i13(order, bound):
    # sum_k p(k) sigma(n-k) is the coefficient of q^n in sum sigma(n) q^n / (q;q)_inf
    rhs = lambert(1, order).qmul(1, 1, 1, None, -1)
    return ((n, n * partitions.p_count(n), rhs[n]) for n in range(1, order + 1))


def _chk_i14(order, bound):
    s23 = partitions.spt23_series(order)
    n2 = partitions.second_rank_moment_series(order)
    # sum_k p(k) sigma(3(m-k)) is the coefficient of q^m in sum sigma(3j) q^j / (q;q)_inf
    total = Series([partitions.sigma(1, 3 * j) for j in range(order // 3 + 1)]).qmul(1, 1, 1, None, -1)
    return ((3 * m, s23[3 * m], total[m] - Fraction(n2[m], 2)) for m in range(1, order // 3 + 1))


def _chk_i15(order, bound):
    return (
        (n, partitions.sigma(1, 3 * n),
         4 * partitions.sigma(1, n) - 3 * partitions.sigma(1, Fraction(n, 3)))
        for n in range(1, max(order, bound) + 1)
    )


def _chk_i16(order, bound):
    s23 = partitions.spt23_series(order)
    spt_s = partitions.spt_series(order)
    for n in range(1, order // 3 + 1):
        yield 3 * n, s23[3 * n], spt_s[n], 3
    for n in range(1, bound // 3 + 1):
        yield 3 * n, partitions.spt23(3 * n), partitions.spt(n), 3


def _chk_i17(order, bound):
    return _coeffs(theta.a_lattice(order), theta.a_eta(order), order)


def _chk_i18(order, bound):
    lhs = _difference_series(order)
    bracket = (  # 12 times the bracket of the eta-quotient expansion
        monomial(81, 2, order).qmul(1, 9, 9, None, 6)
        + monomial(18, 1, order).qmul(1, 1, 1, None, 3).qmul(1, 9, 9, None, 3)
        + one(order).qmul(1, 1, 1, None, 6)
    ).qmul(1, 3, 3, None, -2) - 1
    n2q3 = partitions.second_rank_moment_series(order).substitute_power(3)
    rhs = bracket.qmul(1, 3, 3, None, -1) * Fraction(1, 12) + n2q3
    return _coeffs(lhs, rhs, order)


def _chk_i19(order, bound):
    n2q3 = partitions.second_rank_moment_series(order).substitute_power(3)
    bracket = one(order).qmul(1, 1, 1, None, 6).qmul(1, 3, 3, None, -2) - 1
    rhs = bracket.qmul(1, 3, 3, None, -1) * Fraction(1, 12) + n2q3
    diff = partitions.spt23_series(order) - rhs
    return ((k, diff[k], 0, 3) for k in range(order + 1))


def _chk_i20(order, bound):
    s23 = partitions.spt23_series(order)
    for n in range(2, order + 1, 3):
        yield n, s23[n], 0, 3
        # a count of partitions: 3-adically 0 is not enough, it must be an integer
        integral(s23[n], n)
    for n in range(2, bound + 1, 3):
        yield n, partitions.spt23(n), 0, 3


def _chk_i21(order, bound):
    table = theta.lattice_table(3 * bound)
    return (
        (m, theta.p3_alt(m, table), theta.p3_convolution(3 * m, table))
        for m in range(bound + 1)
    )


def _chk_i22(order, bound):
    tri = [i * (i + 1) // 2 for i in range(bound + 1)]
    for i in range(bound + 1):
        for j in range(bound + 1):
            yield i, (tri[i] + tri[j]) % 3 == 2, i % 3 == 1 and j % 3 == 1
        if i % 3 == 1:
            yield i, 2 * i + 1, 0, 3


# (metadata, check, erratum name or None)
_REGISTRY: list[tuple[IdentityCheck, object, str | None]] = [
    (IdentityCheck("I1", "sum_{n>=0} (1 - (q^(n+1);q)_inf) = sum sigma_0(n) q^n"), _chk_i1, None),
    (IdentityCheck("I2", "spt series = sum n p(n) q^n - (1/2) * second rank moment series"), _chk_i2, None),
    (IdentityCheck("I3", "spt23 series = (sum sigma(n) q^n)/(q^3;q^3)_inf - (1/2) * rank moment series at q^3"), _chk_i3, None),
    (IdentityCheck("I4", "Slater J(1) tables satisfy the Bailey pair defining relation (n <= 8)", order=40), _chk_i4, "alpha0-literal-reading"),
    (IdentityCheck("I5", "double-derivative specialization of the lemma holds for J(1)", order=40), _chk_i5, None),
    (IdentityCheck("I6", "Bailey's lemma at (z, y) = (-1, -1) holds for J(1)", order=30), _chk_i6, None),
    (IdentityCheck("I7", "cubic theta: lattice count equals the Lambert-series form"), _chk_i7, "lambert-sum-started-at-1"),
    (IdentityCheck("I8", "12 (sum sigma(n) q^n - 3 sum sigma(n) q^(3n)) = a(q)^2 - 1"), _chk_i8, None),
    (IdentityCheck("I9", "spt23 series - 3 spt series at q^3 = xi series + rank moment series at q^3"), _chk_i9, "rank-moment-term-with-extra-euler-factor"),
    (IdentityCheck("I10", "quaternary representation counts equal 12 sigma(n) - 36 sigma(n/3)"), _chk_i10, None),
    (IdentityCheck("I11", "spt23(n) = xi(n) for n = +-1 (mod 3); spt23(3n) = 3 spt(n) + xi(3n) + N2(n)"), _chk_i11, None),
    (IdentityCheck("I12", "spt23(n) = P3(n)/12 for n = +-1 (mod 3); spt23(3n) = (P3(3n)-p(n))/12 - N2(n)/2 (mod 3)"), _chk_i12, "congruence-with-convolution-zero-term-kept"),
    (IdentityCheck("I13", "n p(n) = sum_k p(k) sigma(n-k)"), _chk_i13, None),
    (IdentityCheck("I14", "spt23(3n) = sum_k p(k) sigma(3(n-k)) - N2(n)/2"), _chk_i14, None),
    (IdentityCheck("I15", "sigma(3n) = 4 sigma(n) - 3 sigma(n/3)"), _chk_i15, None),
    (IdentityCheck("I16", "spt23(3n) = spt(n) (mod 3)"), _chk_i16, None),
    (IdentityCheck("I17", "cubic theta: eta-quotient form equals the lattice count"), _chk_i17, None),
    (IdentityCheck("I18", "spt23 series - 3 spt series at q^3 equals the eta-quotient expansion plus the rank moment series at q^3"), _chk_i18, None),
    (IdentityCheck("I19", "spt23 series = (q;q)_inf^6/(12 (q^3;q^3)_inf^3) - 1/(12 (q^3;q^3)_inf) + rank moment series at q^3 (mod 3)"), _chk_i19, None),
    (IdentityCheck("I20", "spt23(3n+2) = 0 (mod 3)"), _chk_i20, None),
    (IdentityCheck("I21", "sum_k R(3k) p(n-k) = P3(3n)"), _chk_i21, None),
    (IdentityCheck("I22", "T_i + T_j = 2 (mod 3) only for i = j = 1 (mod 3), where 3 | 2i+1"), _chk_i22, None),
]

_BY_ID = {entry[0].id: entry for entry in _REGISTRY}


def registry() -> list[IdentityCheck]:
    """The fixed list of registered identity checks, in id order."""
    return [meta for meta, _, _ in _REGISTRY]


def run(check_id: str, order: int | None = None, oracle_bound: int | None = None) -> IdentityResult:
    """Execute one registered check at the given (or registered) parameters."""
    if check_id not in _BY_ID:
        raise ValueError(f"unknown identity id: {check_id!r}")
    meta, check, erratum = _BY_ID[check_id]
    n = meta.order if order is None else order
    b = DEFAULT_ORACLE_BOUND if oracle_bound is None else oracle_bound
    if not (isinstance(n, int) and isinstance(b, int)):
        raise TypeError(f"order and oracle bound must be ints, not {type(n).__name__} and {type(b).__name__}")
    if n < 10:
        raise ValueError("order must be at least 10")
    if n > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")
    if b < 1:
        raise ValueError("oracle bound must be at least 1")
    if b > MAX_ORACLE_BOUND:
        raise ValueError(f"oracle bound must be at most {MAX_ORACLE_BOUND}")
    t0 = time.perf_counter()
    diagnostic = None
    try:
        cases, literal = check(n, b) if erratum else (check(n, b), None)
        mismatch = _first_mismatch(cases)
        if erratum:
            found = _first_mismatch(literal())
            diagnostic = {
                "name": erratum,
                "expected_status": "fail",
                "status": "pass" if found is None else "fail",
            }
            if found is not None:
                diagnostic["first_mismatch"] = found
        status = "pass" if mismatch is None else "fail"
    except NonIntegralError as exc:  # from a builder, before the first case
        mismatch = _non_integral(exc)
        status = "fail"
    except Exception as exc:  # pragma: no cover - defensive harness boundary
        mismatch = None
        status = "error"
        diagnostic = {"error": repr(exc)}
    runtime_ms = round((time.perf_counter() - t0) * 1000, 3)
    return IdentityResult(check_id, status, n, runtime_ms, mismatch, diagnostic)


def run_all(order: int | None = None, oracle_bound: int | None = None) -> list[IdentityResult]:
    """Run every registered check; results come back sorted by id."""
    return [run(meta.id, order, oracle_bound) for meta, _, _ in _REGISTRY]


def report(results: list[IdentityResult], order: int | None = None,
           oracle_bound: int | None = None) -> dict:
    """Aggregate results into the JSON-ready report structure."""
    return {
        "config": {
            "order": order,
            "oracle_bound": oracle_bound if oracle_bound is not None else DEFAULT_ORACLE_BOUND,
        },
        "results": [r.to_dict() for r in results],
    }


def all_passed(results: list[IdentityResult]) -> bool:
    """True when every non-diagnostic check passed (diagnostics are advisory)."""
    return all(r.status == "pass" for r in results)


# ---------------------------------------------------------------------------
# sequence export
# ---------------------------------------------------------------------------


# name -> (first index, upto -> (index -> value)); each builder is looked up on
# its module when a sequence is asked for, so a rebound attribute is seen
_SEQUENCES = {
    "p": (0, lambda upto: partitions.p_count),
    "sigma0": (1, lambda upto: partial(partitions.sigma, 0)),
    "sigma1": (1, lambda upto: partial(partitions.sigma, 1)),
    "N2": (1, lambda upto: partitions.second_rank_moment_series(max(upto, 1)).coeff),
    "spt": (1, lambda upto: partitions.spt_series(max(upto, 1)).coeff),
    "spt23": (1, lambda upto: partitions.spt23_series(max(upto, 1)).coeff),
    "xi": (1, lambda upto: partitions.xi_series(max(upto, 1)).coeff),
    "p3": (0, lambda upto: partitions.p3),
    "P3": (0, lambda upto: partial(theta.p3_convolution, table=theta.lattice_table(max(upto, 1)))),
    "R": (0, lambda upto: theta.lattice_table(max(upto, 1)).R.__getitem__),
    "a_coeffs": (0, lambda upto: theta.a_lattice(max(upto, 1)).coeff),
}

SEQUENCE_NAMES = tuple(_SEQUENCES)


def sequence_values(name: str, upto: int) -> list[tuple[int, Fraction]]:
    """The named sequence as (index, value) pairs, up to and including upto."""
    if not isinstance(upto, int):
        raise TypeError(f"upto must be an int, not {type(upto).__name__}")
    if upto < 0:
        raise ValueError("upto must be non-negative")
    if upto > MAX_ORDER:
        raise ValueError(f"upto must be at most {MAX_ORDER}")
    if name not in _SEQUENCES:
        raise ValueError(f"unknown sequence name: {name!r}")
    first, values = _SEQUENCES[name]
    value = values(upto)
    return [(n, Fraction(value(n))) for n in range(first, upto + 1)]


def export_sequence(name: str, upto: int, fmt: str = "csv") -> str:
    """Render the named sequence as index,value rows (csv) or JSON."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format: {fmt!r}")
    values = sequence_values(name, upto)
    if fmt == "csv":
        return "".join(f"{n},{v}\n" for n, v in values)
    return json.dumps(
        {"name": name, "values": [[n, str(v)] for n, v in values]}, indent=2
    ) + "\n"
