"""Semi-exponential structure on joints: abstraction and the eta law.

Abstraction is checked against its definition here; the beta law and
naturality are the semiexp suite's equations. The eta law fails because
abstraction always produces a joint with uniform first marginal.
"""

import numpy as np
import pytest

from qbayes import classical as cl
from qbayes.classical import Dist, Space
from qbayes.verify import random_dist, random_stoch_channel


ZS = Space(["z0", "z1"])
XS = Space(["x0", "x1", "x2"])
YS = Space(["y0", "y1", "y2", "y3"])


class TestAbstraction:
    def test_joint_entries_by_definition(self):
        """abstract(f)[z] puts mass f(z, x)(y) / #X at (x, y)."""
        rng = np.random.default_rng(31)
        f = random_stoch_channel(ZS.tensor(XS), YS, rng)
        lam = cl.abstract(f)
        for z in ["z0", "z1"]:
            joint = lam[z]
            assert joint.space == XS.tensor(YS)
            for x in ["x0", "x1", "x2"]:
                for y in ["y0", "y1", "y2", "y3"]:
                    want = f.matrix[f.dom.index((z, x)), YS.index((y,))] / 3
                    assert joint.mass((x, y)) == pytest.approx(want, abs=1e-15)

    def test_first_marginal_is_uniform(self):
        rng = np.random.default_rng(32)
        lam = cl.abstract(random_stoch_channel(ZS.tensor(XS), YS, rng))
        for joint in lam.values():
            np.testing.assert_allclose(
                joint.marginal([1, 0]).probs, np.full(3, 1 / 3), atol=1e-12
            )

    def test_needs_two_component_domain(self):
        rng = np.random.default_rng(33)
        with pytest.raises(Exception):
            cl.abstract(random_stoch_channel(XS, YS, rng))


class TestEtaFailure:
    def test_round_trip_misses_skewed_joints(self):
        """pair(uniform, extract(tau)) != tau once M1(tau) is non-uniform."""
        rng = np.random.default_rng(36)
        tau = random_dist(XS.tensor(YS), rng)
        back = cl.pair(Dist.uniform(XS), cl.extract(tau))
        dev = float(np.max(np.abs(back.probs - tau.probs)))
        assert dev > 0.01

    def test_round_trip_fixes_uniform_joints(self):
        rng = np.random.default_rng(37)
        tau = cl.pair(Dist.uniform(XS), random_stoch_channel(XS, YS, rng))
        back = cl.pair(Dist.uniform(XS), cl.extract(tau))
        np.testing.assert_allclose(back.probs, tau.probs, atol=1e-12)
