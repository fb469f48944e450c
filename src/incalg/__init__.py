"""Exact arithmetic in incidence algebras of finite posets, with
constructive factorizations of potent-preserving linear maps and an
exhaustive verification harness for the classification statements.

The harness subpackage is imported lazily: plain algebra work should not
pay for the sweep kernels.
"""

from .algebra import (IncElement, basis_element, centralizer_basis, conjugate,
                      convolve, delta, diagonal_part, e_A, from_triples,
                      is_central, is_invertible, is_k_potent, jordan_product,
                      lie_bracket, power, try_inverse, zero)
from .classify import (ClassifyReport, JordanFactorization, ScalarSplit,
                       Z2Factorization, classify_preserver, jordan_decompose,
                       scalar_split, z2_decompose)
from .errors import IncalgError
from .field import GF, QQ, field_from_flag, primitive_root_of_unity
from .linmaps import (LinMap, apply_map, compose, conjugation_map,
                      format_linmap, identity_map, is_algebra_automorphism,
                      is_bijective, is_jordan_homomorphism,
                      is_k_potent_preserver, is_lie_homomorphism,
                      linmap_from_images, linmap_from_pair_images,
                      multiplicative_map, order_induced_map, parse_linmap,
                      scale_map, shift_from_functional)
from .poset import (OrderMap, Poset, antichain, chain, enumerate_order_maps,
                    parse_poset, poset_from_relations)
from .potents import (SpectralDecomposition, conjugate_to_diagonal,
                      enumerate_k_potents, sample_k_potents,
                      simultaneous_diagonalize, spectral_decompose)

__version__ = "0.1.0"
