"""Finite-depth fan approximations of Mahavier products of slope relations.

The package decides the never-connect condition for a rational slope pair
exactly, enumerates finite-depth legs of the associated Mahavier products,
certifies endpoint density and the Cantor-fan embedding at desk scale,
encloses Hausdorff distances between approximations, and renders the
resulting fans as SVG.
"""

from .analysis import (
    APPROXIMATE,
    DEFAULT_DELTA,
    DEFAULT_GREEDY_BUDGET,
    DEFAULT_ORACLE_BUDGET,
    DENSITY_EPSILONS,
    EXACT,
    EndpointCertificate,
    GreedyTrace,
    NotEndpointVerdict,
    canonical_endpoint_extension,
    classify_endpoint,
    density_sweep,
    density_witness,
    directed_hausdorff,
    greedy_sequence,
    hausdorff,
    oracle_best_sequence,
    sample_deep_points,
    sample_points,
    sample_resolution,
    verify_embedding,
)
from .errors import (
    DomainError,
    FanError,
    FormatError,
    NcViolation,
    PreconditionError,
    RangeError,
    ResourceError,
    ShapeError,
)
from .mahavier import (
    DEFAULT_ENUM_BUDGET,
    DEGENERACY_THRESHOLD,
    FanApprox,
    Leg,
    PointPrefix,
    RelationSpec,
    Word,
    build_leg,
    cantor_relation,
    enumerate_legs,
    fan_from_dict,
    fan_relation,
    fan_to_dict,
    is_degenerating,
    leg_point,
    line_pair_relation,
    load_fan,
    membership,
    sample_legs,
    save_fan,
    truncated_metric,
)
from .nc import NcVerdict, check_nc, require_nc
from .render import ANGLE_CANTOR, ANGLE_UNIFORM, RenderConfig, angle_fractions, render_fan
from .scalars import (
    DEFAULT_PRIME_BOUND,
    factor,
    format_scalar,
    parse_scalar,
    power,
)

__version__ = "0.1.0"
