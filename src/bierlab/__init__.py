"""Exact combinatorics of Bier and Murai spheres: duality, face rings,
face vectors, cubical models, and exhaustive verification censuses."""

from .complexes import (
    Complex,
    Isomorphism,
    are_isomorphic,
    boundary_simplex,
    canonical_form,
    canonical_key,
    cone,
    cross_polytope,
    cycle,
    drop_ghosts,
    faces,
    full_subcomplex,
    has_face,
    is_flag,
    is_pure,
    join,
    link,
    make_complex,
    mask_of,
    minimal_nonfaces,
    nerve_q2_3,
    points,
    simplex,
    standard_complex,
    stellar_subdivision,
    suspension,
    truncation_sphere,
    vertices_of,
)
from .duality import (
    BierClassification,
    FlagKind,
    alexander_dual,
    bier_minimal_nonfaces,
    bier_sphere,
    classify_bier,
    match_flag_family,
    match_truncation_family,
    reference_flag_sphere,
)
from .errors import BierlabError, InvalidInput, ResourceLimit, UndefinedDual
from .facevectors import (
    f_vector,
    gamma_vector,
    h_vector,
    is_dehn_sommerville,
    realize_gamma_as_flag_f,
)
from .multicomplexes import (
    MonomialIdeal,
    Multicomplex,
    c_dual,
    make_multicomplex,
    minimal_nonmembers,
    multicomplex_of_complex,
    murai_face_ideal,
    murai_sphere,
    nonmember_ideal,
    polarize,
    star_polarize,
)
from .tor import (
    GF2,
    GF3,
    QQ,
    BigradedBetti,
    FieldTag,
    TorWitness,
    golod_summary,
    hochster_betti,
    homology_sphere_check,
    koszul_betti_oracle,
    tor_products,
)
from .cubical import (
    CubicalComplex,
    boundary_complex,
    cone_cubulation,
    cubical_homology,
    gw_partition_check,
    z_complex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
