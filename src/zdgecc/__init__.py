"""Zero-divisor graphs of Z_n, their eccentricity matrices and spectra.

The package builds the plain, extended and compressed zero-divisor graphs
of the ring of integers modulo n, computes eccentricity matrices and their
spectra both exactly (arbitrary-precision characteristic polynomials) and
in floating point (LAPACK, behind a backward-error check), and audits a catalogue of claimed
closed-form spectra, energies and structure statements against computed
ground truth.
"""

__version__ = "0.1.0"

from zdgecc.number_theory import (
    ClassKind,
    DivisorClass,
    Factorization,
    class_graph_kind,
    divisor_class,
    euler_phi,
    factorize,
    proper_divisors,
)
from zdgecc.graphs import (
    EmptyGraphError,
    Graph,
    UNREACHABLE,
    build_compressed_zdg,
    build_extended_zdg,
    build_zdg,
    build_zdg_zpzp,
    complement,
    decompose_zdg,
    distances,
    generalized_join,
    is_connected,
    is_star,
    is_tree,
    upsilon,
)
from zdgecc.eccentricity import (
    EquitabilityError,
    Partition,
    divisor_class_partition,
    eccentricities,
    eccentricity_matrix,
    is_irreducible,
    quotient_matrix,
)
from zdgecc.spectra import (
    Spectrum,
    SpectrumEntry,
    eigenvalues_symmetric,
    energy,
    energy_gap,
    spectral_radius,
    spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
