"""Dividing the homology series by the dual Steenrod series.

The homology of the versal characteristic-p ring spectrum is free over the
Dyer-Lashof algebra on one degree-1 class, so its Poincare series is a
product of geometric factors, one per admissible word of excess above 1.
The dual Steenrod algebra sits inside it, and the quotient of the two
series is the homotopy dimension series. This script walks through that
division at p = 2 and p = 3 and reads off the consequences.
"""

from versalp import (
    equivalence_count,
    homotopy_series,
    selfmap_first_nontrivial,
    steenrod_series,
)

for p in (2, 3):
    top = 4 * (p - 1)
    report = homotopy_series(p, 3 * top)

    print(f"p = {p}, computed through degree {report.truncation_degree}")
    print("  homology: ", report.homology_series.coefficients[: top + 1], "...")
    print("  steenrod: ", steenrod_series(p, 3 * top).coefficients[: top + 1], "...")
    print("  homotopy: ", report.homotopy_series.coefficients[: top + 1], "...")

    # The quotient starts 1, then nothing until degree 4(p-1). That gap is
    # re-checked on every run, not assumed.
    print(f"  gap through degree {top} verified: {report.gap_verified}")
    print(f"  first nonzero positive degree: {report.first_positive_nonzero_degree}")

    # One degree below the first homotopy class sits the last degree where
    # a self-map can act nontrivially.
    print(f"  first nontrivial self-map degree: {selfmap_first_nontrivial(p)}")

    # p - 1 equivalence classes, one per unit used to attach the cell. The
    # count is only reported once the degree-1 homology dimension checks out.
    print(f"  equivalence classes: {equivalence_count(p)}")
    print()

# The further out you look, the faster the dimensions grow; the division
# stays exact because every coefficient is an integer, never a float.
report = homotopy_series(2, 60)
print("p = 2 homotopy dimensions in degrees 50..60:")
print(" ", report.homotopy_series.coefficients[50:])
