"""sptlab: an exact-arithmetic laboratory for smallest-parts partition
statistics, rank moments, Borwein's cubic theta function, and Bailey pairs,
with a machine-checked identity registry tying them together."""

from .series import NonIntegralError, NonUnitError, Series, lambert, monomial, one, poch, zero
from .partitions import (
    p3,
    p_count,
    enumerate_partitions,
    qualifies,
    rank_counts,
    rank_moment_tail,
    second_rank_moment,
    second_rank_moment_series,
    sigma,
    spt,
    spt23,
    spt23_series,
    spt_series,
    xi_series,
)
from .theta import (
    LatticeCountTable,
    R_closed,
    R_lattice,
    a_eta,
    a_lambert,
    a_lattice,
    lattice_table,
    p3_alt,
    p3_convolution,
)
from .bailey import (
    BaileyPair,
    derivative_identity_sides,
    lemma_sides,
    slater_j1,
    verify_pair,
)
from .identities import (
    DEFAULT_ORACLE_BOUND,
    DEFAULT_ORDER,
    IdentityCheck,
    IdentityResult,
    export_sequence,
    registry,
    report,
    run,
    run_all,
    sequence_values,
)

__version__ = "0.1.0"
