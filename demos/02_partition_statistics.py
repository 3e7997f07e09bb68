"""Partition statistics two ways: exhaustive enumeration vs series coefficients.

spt counts every appearance of the smallest part; spt23 restricts the count
to partitions whose parts are either below twice the smallest part or
multiples of 3 at least three times the smallest.
"""

from sptlab import (
    enumerate_partitions,
    p_count,
    qualifies,
    rank_counts,
    second_rank_moment,
    second_rank_moment_series,
    spt,
    spt23,
    spt23_series,
    spt_series,
)

print("== the partitions of 5 and their ranks ==")
for parts in enumerate_partitions(5):
    tag = "qualifies" if qualifies(parts) else "excluded "
    rank = parts[0] - len(parts)  # largest part minus the number of parts
    print(f"  {str(parts):22} rank={rank:+d}  smallest x{parts.count(parts[-1])}  {tag}")
print("p(5) =", p_count(5))

print()
print("== smallest-part totals ==")
print("spt(5)   =", spt(5), "(all partitions)")
print("spt23(5) =", spt23(5), "(restricted partitions above)")

print()
print("== the qualifying partitions of 8 ==")
for parts in enumerate_partitions(8):
    if qualifies(parts):
        print("  ", parts)
print("spt23(8) =", spt23(8))

print()
print("== rank moments ==")
print("rank counts of 4:", rank_counts(4))
print("second moments n=1..8:", [second_rank_moment(n) for n in range(1, 9)])

print()
print("== enumeration vs generating functions (n = 1..12) ==")
N = 12
s1, s2, s3 = spt_series(N), spt23_series(N), second_rank_moment_series(N)
print(" n  spt  =coeff  spt23 =coeff  mom2 =coeff")
for n in range(1, N + 1):
    row = (n, spt(n), int(s1[n]), spt23(n), int(s2[n]),
           second_rank_moment(n), int(s3[n]))
    print("%3d %4d %6d %6d %6d %5d %6d" % row)
