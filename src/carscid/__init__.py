"""Orientationally averaged chiral CARS signals from molecular property tensors.

The package computes the circular intensity difference of the collinear
four-wave-mixing configuration (three x-polarized inputs, circular analysis of
the scattered beam) for randomly oriented molecules, with every closed-form
rotational-average coefficient validated against an independent SO(3)
quadrature and Monte Carlo oracle.
"""
from .averaging import (
    AveragedTerms,
    McResult,
    OracleReport,
    QuadratureResult,
    averaged_electric,
    averaged_magnetic,
    averaged_quadrupole,
    averaged_terms,
    electric_from_natural,
    magnetic_from_natural,
    mc_average,
    quadrupole_from_natural,
    so3_quadrature_average,
    verify_closed_forms,
)
from .cid import (
    HARTREE_TO_CM1,
    SignalResult,
    SpectrumRow,
    StatesMode,
    TensorMode,
    delta_eq12,
    delta_eq13,
    delta_from_averaged_terms,
    signal_for_tensors,
    spectrum,
)
from .errors import (
    CarscidError,
    DegenerateDenominator,
    FrequencyError,
    MissingMomentError,
    NonConvergence,
    ResonanceError,
    RoleError,
    SchemaError,
    SymmetryError,
)
from .invariants import (
    IsotropicInvariantSet,
    NaturalInvariantSet,
    alpha_invariants,
    aquad_invariants,
    gprime_invariants,
    isotropic_invariants,
    natural_from_isotropic,
)
from .model_io import ModelFile, parse_model, parse_model_file, serialize_model
from .scattering import (
    C_AU,
    BeamSet,
    PhysicalContext,
    PropertyTensorSet,
    m_squared_general,
    m_squared_vvvl,
    m_squared_vvvr,
    random_property_tensors,
    transition_rate,
)
from .sos import (
    MolecularModel,
    MomentTable,
    Roles,
    build_property_tensors,
    gyration_sos,
    polarizability_sos,
    quadrupole_activity_sos,
)
from .tensors import (
    LEVI_CIVITA,
    as_rank2,
    as_rank3_sym_last,
    as_sym_rank2,
    epsilon_contract,
    haar_random_rotation,
    haar_random_rotations,
    rotate_rank2,
    rotate_rank3,
    rotation_about,
)

__version__ = "0.1.0"
