"""modhull: exact geometry of modular hyperbolas.

Builds the point sets H_a(m) = {(x, y) : xy = a (mod m), 1 <= x, y <= m-1},
their convex closures and vertex counts, a certificate-checked hull search
over the points near the corners that avoids full enumeration for large
moduli, conic detection by integer linear algebra, exact quadratic-curve
point counting, and batch sweep tooling with a reproducible CSV contract.
"""

from ._version import __version__
from .conics import (
    CONIC_MONOMIALS,
    AllZeroMod,
    ConicClass,
    ConicForm,
    InfiniteFamily,
    classify_conic,
    count_conic_points_in_box,
    find_vanishing_form,
    minors_singular_mod,
    poly_roots_mod,
)
from .experiments import (
    APolicy,
    SweepRecord,
    compute_record,
    exponent_summary,
    lower_bound_census,
    records_to_csv,
    run_sweep,
    write_csv,
)
from .geometry import (
    ConvexPolygon,
    DegenerateInput,
    TooFewVertices,
    UnimodularMap,
    consecutive_block_min_area,
    contains_point,
    convex_hull,
    normalize_to_box,
    transform_polygon,
    twice_area,
)
from .hullfast import (
    ENUMERATE_BELOW,
    VerificationReport,
    candidate_points,
    fast_hull,
    hull_method,
    verify_against_naive,
)
from .hyperbola import (
    ENUMERATION_CEILING,
    MODULUS_CEILING,
    HyperbolaSpec,
    count_in_box,
    enumerate_points,
    format_points,
    parse_points,
    predicted_count,
    read_points_file,
    write_points_file,
)
from .ntheory import (
    FACTOR_CEILING,
    Factorization,
    NotInvertible,
    batch_mod_inv,
    divisors,
    ext_gcd,
    factorize,
    is_prime,
    mod_inv,
)
