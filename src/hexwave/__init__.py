"""Parallel finite-element workbench for time-harmonic scattering.

Assembles the vector wave equation for the magnetic field on hexahedral
box meshes with absorbing outer boundaries, embedded conducting box
scatterers and symmetry planes, and solves the resulting complex
symmetric systems with rank-partitioned preconditioned conjugate
gradient over a simulated message-passing fabric with exact traffic
accounting.
"""
from .mesh import (FacetKind, HexMesh, MeshError, ScattererSpec,
                   build_box_mesh, classify_boundary, embed_pec_scatterer)
from .sparse import (LowerSymmetricRows, RedundantRows, RowPartition,
                     SparseFormatError, SparseVector, full_matvec,
                     partition_rows, spmv_partial, to_redundant,
                     write_matrix_market)
from .fabric import (CommFabric, FabricError, FabricTimeout, MessageCounters,
                     master_slave_concat, run_spmd, spmd_concat)
from .assembly import (AssemblyConfig, AssemblyError, MaterialParams,
                       PlaneWave, apply_symmetry_bc, assemble_rhs,
                       assemble_rows, constrained_dofs, element_matrices,
                       incident_field, symmetrize)
from .solver import (CholeskyFactor, FactorBreakdownError, Preconditioner,
                     SingularPreconditionerError, SolveReport, SolverError,
                     build_bicp, build_dp, build_icp, cg_solve,
                     forward_back_substitute)
from .runner import (ConfigError, RunResult, Scenario, compare_preconditioners,
                     run_scenario)

__version__ = "0.1.0"
