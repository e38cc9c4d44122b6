import numpy as np
import pytest

from truncops import quadrature
from truncops.errors import NoConvergence
from truncops.quadrature import QuadratureSettings, pairing_matrix
from truncops.ratfun import RationalSymbol


def test_override_restores_after_exception():
    before = quadrature.current()
    with pytest.raises(RuntimeError):
        with quadrature.override(QuadratureSettings(start=64)) as ev:
            assert quadrature.current() is ev
            assert ev.settings.start == 64
            raise RuntimeError("inside the block")
    assert quadrature.current() is before


def test_override_shares_counters_and_memo():
    before = quadrature.current()
    with quadrature.override(QuadratureSettings(start=64)) as ev:
        assert ev.stats is before.stats
        assert ev.memo is before.memo


def test_cap_is_checked_before_the_first_level():
    one = RationalSymbol.one()
    with quadrature.use(quadrature.Evaluation(QuadratureSettings(start=1024, cap=1024))) as ev:
        with pytest.raises(NoConvergence):
            pairing_matrix([one], [one])
        assert ev.stats.snapshot() == {"pairings": 0, "max_nodes": 0}
    with quadrature.use(quadrature.Evaluation(QuadratureSettings(start=512, cap=1024))) as ev:
        assert np.allclose(pairing_matrix([one], [one]), [[1.0]])
        assert ev.stats.snapshot() == {"pairings": 1, "max_nodes": 1024}
