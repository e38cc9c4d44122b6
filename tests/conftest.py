import numpy as np
import pytest

from truncops import InnerFunction, monomial_inner


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def u2():
    return monomial_inner(2)


@pytest.fixture
def u3():
    return monomial_inner(3)


@pytest.fixture
def u_generic():
    """Degree-3 product with complex zeros and a non-real constant."""
    return InnerFunction([0.3 + 0.4j, -0.5, 0.2 - 0.6j], constant=np.exp(0.7j))


@pytest.fixture
def u_sym():
    """Real symmetric: conjugation-closed zeros, real constant."""
    return InnerFunction([0.5j, -0.5j, 0.3], constant=-1)


@pytest.fixture
def v_generic():
    return InnerFunction([0.1 - 0.2j, 0.45], constant=-1)
