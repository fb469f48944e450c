"""Sweep kernels, converse families, theorem verifiers, and demos."""

from .demos import DEMO_NAMES, run_all_demos, run_demo
from .families import (bijective_shifts, invertible_elements,
                       jordan_like_maps, multiplicative_systems, scaled_maps)
from .gl import enumerate_gl, gl_order
from .kernels import SweepResult, codes_of_linmap, linmap_from_codes, sweep_gl
from .verify import THEOREMS, SweepReport, describe_poset, verify_theorem
