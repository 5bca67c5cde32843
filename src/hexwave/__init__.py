"""Parallel finite-element workbench for time-harmonic scattering.

Assembles the vector wave equation for the magnetic field on hexahedral
box meshes with absorbing outer boundaries, embedded conducting box
scatterers and symmetry planes, and solves the resulting complex
symmetric systems with rank-partitioned preconditioned conjugate
gradient over a simulated message-passing fabric with exact traffic
accounting.
"""

__version__ = "0.1.0"
