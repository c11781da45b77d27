"""Exact symbolic star products for gradient-type Poisson structures on R^3.

The package constructs Weyl-type deformation quantizations level by level,
solving the cohomological equation for each bidifferential correction and
checking that the obstruction at the next level vanishes, all over exact
rational arithmetic.
"""
