"""Skyline fillings, Demazure polynomials, crystal graphs, and the
truncated-staircase non-symmetric Cauchy kernel."""

from .correspondences import (
    Biword,
    from_multiset,
    main_theorem_predicate,
    phi,
    phi_inverse,
    rsk,
)
from .crystal import (
    CrystalGraph,
    DemazureCrystal,
    atom_set,
    bounded_entry_restriction,
    crystal_graph,
    demazure_crystal,
    demazure_graph,
    e_op,
    f_op,
    string_decomposition,
)
from .demazure import atom, key_polynomial, pi_op, pihat_op
from .fillings import (
    SSAF,
    insert,
    key_ssaf,
    psi,
    psi_inverse,
    right_key,
    validate,
)
from .kernel import (
    KernelInstance,
    alpha_vector,
    kernel_lhs,
    kernel_rhs,
    verify_expansion,
)
from .permutations import orbit_bruhat_leq
from .polynomials import SparsePoly
from .shapes import (
    cells,
    decreasing_rearrangement,
    truncated_staircase,
)
from .tableaux import (
    SSYT,
    entrywise_leq,
    enumerate_ssyt,
    evacuation,
    is_key,
    key_tableau,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
