"""A wrong p(n), sigma(n) or series coefficient must fail the checks that read it.

Each case moves one value of a builder by one (for a series builder, the
coefficient of one q^k) and rebinds the builder in every sptlab module that
binds it, since ``theta`` binds ``p_count``, ``p3`` and ``sigma`` at import.
It then clears the prefix memos and runs the whole registry.  The checks
that read the value must fail, each at the first index the value reaches,
and every other check must pass.
"""

import sys

import pytest

from sptlab import identities, partitions, theta
from sptlab.series import monomial
from test_prefix_cache import clear_all

ORDER = 24
BOUND = 12


@pytest.fixture
def fresh_memos():
    clear_all()
    yield
    clear_all()


def moved_by_one(monkeypatch, name, at, modules=None):
    """Rebind partitions.<name> to one that returns its value plus 1 at the
    arguments ``at``, in ``modules`` (every sptlab module by default)."""
    original = getattr(partitions, name)
    rebind(monkeypatch, original, lambda *args: original(*args) + (args == at), modules)


def coefficient_moved_by_one(monkeypatch, name, k):
    """Rebind the series builder partitions.<name>, in every sptlab module,
    to one whose coefficient of q^k is 1 larger wherever it reaches q^k."""
    original = getattr(partitions, name)
    rebind(monkeypatch, original, lambda order: original(order) + (monomial(1, k, order) if k <= order else 0))


def rebind(monkeypatch, original, moved, modules=None):
    """Put ``moved`` where ``modules`` bind ``original``, then clear the memos."""
    if modules is None:
        modules = [m for key, m in sys.modules.items() if key == "sptlab" or key.startswith("sptlab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, moved)
    clear_all()


def failures():
    """{id: first mismatching index} of the checks that do not pass."""
    return {r.id: r.first_mismatch[0] for r in identities.run_all(ORDER, BOUND) if r.status != "pass"}


def test_every_check_passes_unmoved(fresh_memos):
    assert failures() == {}


# I21 passes with a wrong p(n): both of its sides are the one sum
# sum_k R(3k) p(m-k), so a moved p(n) moves them alike (the exemption below).
@pytest.mark.parametrize(
    ("name", "at", "expected"),
    [
        ("p_count", (5,), {"I2": 5, "I13": 5, "I12": 16}),
        ("p_count", (7,), {"I2": 7, "I13": 7, "I12": 22}),
        ("sigma", (1, 6), {"I10": 6, "I14": 6, "I15": 2}),
        ("sigma", (1, 5), {"I10": 5, "I15": 5}),
        ("sigma", (0, 4), {"I1": 4}),
    ],
)
def test_a_moved_value_fails_the_checks_that_read_it(monkeypatch, fresh_memos, name, at, expected):
    moved_by_one(monkeypatch, name, at)
    assert failures() == expected


def test_i21_reads_p_on_both_sides(monkeypatch, fresh_memos):
    # the documented exemption: p(n) moved everywhere leaves I21 passing, but
    # moved only where p3_alt reads it (theta's binding) it fails I21 at the
    # first m that reaches it
    moved_by_one(monkeypatch, "p_count", (5,))
    assert "I21" not in failures()
    monkeypatch.undo()
    moved_by_one(monkeypatch, "p_count", (5,), [theta])
    assert failures() == {"I21": 5}


@pytest.mark.parametrize(
    ("name", "k", "expected"),
    [
        ("spt_series", 5, {"I2": 5, "I9": 15, "I11": 15, "I16": 15, "I18": 15}),
        # I20 reads spt23 at n = 2 (mod 3), I14 and I16 at n = 0 (mod 3): one case each
        ("spt23_series", 5, {"I3": 5, "I9": 5, "I11": 5, "I12": 5, "I18": 5, "I19": 5, "I20": 5}),
        ("spt23_series", 6, {"I3": 6, "I9": 6, "I11": 6, "I12": 6, "I14": 6, "I16": 6, "I18": 6, "I19": 6}),
        ("second_rank_moment_series", 4,
         {"I2": 4, "I3": 12, "I9": 12, "I11": 12, "I12": 12, "I14": 12, "I18": 12, "I19": 12}),
        ("xi_series", 8, {"I9": 8, "I11": 8}),
    ],
)
def test_a_moved_coefficient_fails_the_checks_that_read_it(monkeypatch, fresh_memos, name, k, expected):
    coefficient_moved_by_one(monkeypatch, name, k)
    assert failures() == expected
