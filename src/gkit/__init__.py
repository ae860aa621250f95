"""Exact arithmetic for truncated Witt vectors, Cohen rings over imperfect
fields of characteristic p, Greenberg transforms of affine schemes over
artinian bases, and the p-power structure of unit filtrations.

The base field is k = F_p(t_1..t_d); everything downstream (Witt vectors,
Cohen canonical forms, liftings, transforms) is exact and deterministic.
"""

from .base import (
    ArtinianBase,
    BaseElem,
    canonical_lift,
    make_eisenstein,
    make_unramified,
    structure_map,
)
from .basefield import (
    BaseFieldElem,
    DigitExpansion,
    EtaleAlgebra,
    PrimeParams,
    pbasis_expand,
    pth_root,
)
from .cohen import (
    CohenElem,
    cohen_add,
    cohen_mul,
    cohen_neg,
    extract,
    residue,
    solve_p_division,
    teich_lift,
    to_witt,
    ver_embed,
)
from .greenberg import (
    AffinePresentation,
    GreenbergPresentation,
    coords_to_point,
    ga_frob_coker_coords,
    ga_frob_section,
    graded_kernel_check,
    greenberg_transform,
    point_to_coords,
    weil_restrict,
)
from .rings import EtaleRing, FieldRing, IntegerRing, SymbolicRing
from .units import p_power, p_power_solve, unit_level
from .witt import (
    WittVector,
    frobenius,
    ghost,
    structure_polys,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)

__version__ = "0.1.0"
