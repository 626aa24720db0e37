"""Exact graded dimension counts and additive bases for versal
characteristic-p commutative ring spectra."""

from .dyer_lashof import (
    enumerate_generators,
    generator_degree_counts,
    generator_series,
    generator_words,
)
from .free_algebra import (
    EXTERIOR,
    POLYNOMIAL,
    Generator,
    GeneratorSet,
    Monomial,
    MonomialBasis,
    enumerate_monomials,
    product_over_generators,
    series_of,
)
from .power_series import TruncatedSeries
from .steenrod_dual import milnor_generator_degrees
from .versal import (
    CollisionWitness,
    HomotopyReport,
    Verdict,
    VerificationError,
    battery_verdicts,
    cotangent_series,
    equivalence_count,
    homology_series,
    homotopy_report,
    homotopy_series,
    hz_quotient_comparison,
    selfmap_first_nontrivial,
    steenrod_series,
    structure_map_collision,
    taq_dimensions,
    thh_homology_series,
    verification_battery,
)

__version__ = "0.1.0"

__all__ = [
    "CollisionWitness",
    "EXTERIOR",
    "Generator",
    "GeneratorSet",
    "HomotopyReport",
    "Monomial",
    "MonomialBasis",
    "POLYNOMIAL",
    "TruncatedSeries",
    "Verdict",
    "VerificationError",
    "battery_verdicts",
    "cotangent_series",
    "enumerate_generators",
    "enumerate_monomials",
    "equivalence_count",
    "generator_degree_counts",
    "generator_series",
    "generator_words",
    "homology_series",
    "homotopy_report",
    "homotopy_series",
    "hz_quotient_comparison",
    "milnor_generator_degrees",
    "product_over_generators",
    "selfmap_first_nontrivial",
    "series_of",
    "steenrod_series",
    "structure_map_collision",
    "taq_dimensions",
    "thh_homology_series",
    "verification_battery",
]
