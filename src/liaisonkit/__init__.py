"""liaisonkit: exact integer intersection theory on rational surfaces,
liaison and biliaison chain search, and Hilbert-function linkage for
point configurations.

The package is organized as:

* ``lattice``     - divisor classes and the intersection pairing
* ``surfaces``    - the surface catalog and line/conic enumeration
* ``curves``      - curve records, secant profiles, minimal curves
* ``liaison``     - biliaison, Gorenstein and CI links, chain search
* ``search``      - the deterministic breadth-first core of both chain searches
* ``hvectors``    - O-sequences, Gorenstein h-vectors, linkage, characters
* ``glicci``      - point-configuration link chains
* ``experiments`` - scripted reproductions with reference values
* ``cli``         - the ``liaisonkit`` command
"""

from .lattice import (
    DivisorClass,
    arithmetic_genus,
    degree,
    expected_dim_linear_system,
    intersect,
    self_intersection,
)
from .surfaces import (
    LineClassSet,
    SurfaceModel,
    class_representatives,
    conic_classes,
    enumerate_classes,
    get_surface,
    lines_on,
    load_catalog,
    surface_family_dim,
    surface_ids,
)
from .curves import (
    CurveRecord,
    RaoTag,
    SecantProfile,
    Witness,
    disjoint_union,
    k_secant_lines,
    lesperance_curve,
    minimal_curve_M_k,
    multisecant_profile,
    plane_pencil_bound,
    rao_after_biliaison,
)
from .liaison import (
    Chain,
    ChainStep,
    SearchFailure,
    ascending_chain_search,
    ci_link_p3,
    elementary_biliaison,
    family_dimension,
    g_link_on_surface,
    hilbert_dim_lower_bound,
)
from .hvectors import (
    HVector,
    PostulationCharacter,
    acm_h_vector_candidates,
    character_is_connected,
    character_is_positive,
    generic_points_h_vector,
    is_gorenstein_h_vector,
    is_O_sequence,
    link_h_vector,
    macaulay_bound,
    postulation_character,
)
from .glicci import (
    GlicciFailure,
    PointChain,
    ag_candidates_containing,
    glicci_chain,
)
from .experiments import (
    ExperimentReport,
    divisor_eval,
    experiment_ids,
    run_experiment,
)

__version__ = "0.1.0"
