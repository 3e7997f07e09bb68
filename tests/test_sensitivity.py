"""A wrong p(n) or sigma(n) must fail the checks that read it.

Each case moves one value of a builder by one and rebinds the builder in
every sptlab module that binds it, since ``theta`` binds ``p_count``, ``p3``
and ``sigma`` at import.  It then clears the prefix memos and runs the whole
registry.  The checks that read the value must fail, each at the first index
the value reaches, and every other check must pass.
"""

import sys

import pytest

from sptlab import identities, partitions, theta
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

    def moved(*args):
        return original(*args) + (args == at)

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
