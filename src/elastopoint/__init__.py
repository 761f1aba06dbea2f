"""P1 finite elements for linear elasticity with Dirac point forces.

Structured simplicial meshes of the unit box, stiffness assembly,
deterministic multigrid-preconditioned CG, Muckenhoupt power-weight
utilities, discrete inf-sup/Korn diagnostics, and a nested-reference
convergence harness with a CLI front end.
"""

from .assembly import (CONSTRAINED, LameParams, PointLoadSet,
                       assemble_point_load, assemble_smooth_load,
                       assemble_stiffness, build_dof_map, from_free,
                       point_load_nodal, to_free, vector_p1_form_matrix)
from .convergence import (ConvergenceReport, ManufacturedSolution,
                          ReportRow, StudyError, eoc, l2_error_nested,
                          l2_error_quadrature, l2_norm_sq_p1,
                          manufactured_sine_2d, run_convergence_study)
from .mesh import (CellLocation, Mesh, build_unit_box_mesh, cell_geometry,
                   cell_volumes, cells_containing_point, locate_point)
from .multigrid import VCycle, build_levels
from .quadrature import simplex_rule
from .solver import SolveStats, cg_solve
from .spectral import (InfSupReport, discrete_infsup,
                       discrete_korn_constant, kernel_basis,
                       theorem31_report, weighted_pairing_demo,
                       weighted_pairing_matrices)
from .weights import (WeightSpec, a2_ball_products, cell_weight_integrals,
                      default_ball_family, estimate_a2)

__version__ = "0.1.0"
