import pytest

from starq.jets import NABLA_PHI, PSI_NABLA_PHI
from starq.polynomials import parse_poly
from starq.star import ObstructionError, build_star

from helpers import pivot_gauge_star


@pytest.fixture(scope="session")
def sym_star3():
    """Symbolic gradient-mode product through level 3."""
    return build_star(NABLA_PHI, 3)


@pytest.fixture(scope="session")
def sym_star4():
    """Symbolic gradient-mode product through level 4."""
    return build_star(NABLA_PHI, 4)


@pytest.fixture(scope="session")
def sym_star5():
    """Symbolic gradient-mode product through level 5, for the slow tests."""
    return build_star(NABLA_PHI, 5)


@pytest.fixture(scope="session")
def sym_conformal_star3():
    """Symbolic conformal-family product through level 3."""
    return build_star(PSI_NABLA_PHI, 3, "sym", "sym")


@pytest.fixture(scope="session")
def cubic_star():
    """Explicit product for the cubic potential through level 3."""
    return build_star(NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"))


@pytest.fixture(scope="session")
def cubic_star4():
    """Explicit product for the cubic potential through level 4."""
    return build_star(NABLA_PHI, 4, phi=parse_poly("x1*x2*x3"))


@pytest.fixture(scope="session")
def conformal_star3():
    """Explicit conformal-family product, phi = x1*x2*x3 and psi = 1 + x1,
    through level 3."""
    return build_star(PSI_NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"), psi=parse_poly("1+x1"))


@pytest.fixture(scope="session")
def x3_star4():
    """Explicit product for the linear potential through level 4."""
    return build_star(NABLA_PHI, 4, phi=parse_poly("x3"))


@pytest.fixture(scope="session")
def sphere_star():
    """Explicit product for the rotationally symmetric quadratic potential."""
    return build_star(NABLA_PHI, 3, phi=parse_poly("1/2*(x1^2+x2^2+x3^2)"))


@pytest.fixture(scope="session")
def pivot_gauge_obstruction():
    """The nonzero level-4 report of a symbolic build that re-selects no even
    level in the orderable span."""
    with pytest.raises(ObstructionError) as caught:
        pivot_gauge_star(4)
    return caught.value.report
