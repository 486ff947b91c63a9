"""Effective linear circle actions: invariant generators, orbit-type
stratification, and recovery of the weights from the abstract diagram."""

from .action import ActionSpec, canonicalize
from .errors import (
    CircleActionError,
    CountMismatch,
    EmptyAction,
    LengthMismatch,
    MalformedDiagram,
    NegativeMultiplicity,
    NoDistinguishedStratum,
    NotEffective,
    ParityError,
    TooManyCandidates,
    TooManyFaces,
    TooManyWeights,
    UncertifiedDiagram,
)
from .invariants import (
    PART_ABS2,
    PART_IM,
    PART_RE,
    ExponentVector,
    InvariantGenerator,
    hilbert_basis,
    realize_generators,
)
from .numeric import (
    check_homogeneity,
    check_invariance,
    check_m2_membership,
    check_membership,
    check_separation,
    evaluate_hilbert_map,
    rotate,
    run_property_suite,
    same_orbit,
)
from .recovery import recover_weights, roundtrip
from .stratification import (
    DISTINGUISHED_ID,
    INFINITE,
    FaceClass,
    StratificationDiagram,
    Stratum,
    diagram_difference,
    face_table,
    hasse_edges,
    orbit_strata,
)

__version__ = "0.1.0"
