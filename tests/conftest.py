import os
import random

import pytest

from gkit.base import make_eisenstein, make_unramified
from gkit.basefield import EtaleAlgebra, PrimeParams
from gkit.cohen import CohenElem, cohen_from_int, cohen_neg
from gkit.rings import EtaleRing, FieldRing

# pytest imports gkit from src/ (pyproject's pythonpath); the CLI tests'
# `python -m gkit.cli` children find it through PYTHONPATH
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def params2():
    return PrimeParams(2, 1, ["t"])


@pytest.fixture
def params3():
    return PrimeParams(3, 1, ["t"])


@pytest.fixture
def params22():
    return PrimeParams(2, 2, ["t1", "t2"])


@pytest.fixture
def k2(params2):
    return FieldRing(params2)


@pytest.fixture
def k3(params3):
    return FieldRing(params3)


@pytest.fixture
def etale_q(params2):
    # Q = k[y]/(y^2 + y + t)
    t, one = params2.gen(0), params2.one()
    return EtaleAlgebra(params2, [t, one, one])


@pytest.fixture
def etale_ring(etale_q):
    return EtaleRing(etale_q)


@pytest.fixture
def base_unram2(params2):
    return make_unramified(params2, 2)


@pytest.fixture
def base_unram3_p3(params3):
    return make_unramified(params3, 3)


@pytest.fixture
def base_eis_p3(params3, k3):
    # E = pi^2 - 3 over C_2(k), e = 2
    minus_p = cohen_neg(cohen_from_int(k3, 2, 3))
    return make_eisenstein(params3, 2, [minus_p, CohenElem.zero(k3, 2)])


@pytest.fixture
def base_eis_p3_deep(params3, k3):
    # E = pi^2 - 3 over C_3(k): deep enough that level n + e units are
    # nontrivial for n = 2
    minus_p = cohen_neg(cohen_from_int(k3, 3, 3))
    return make_eisenstein(params3, 3, [minus_p, CohenElem.zero(k3, 3)])


@pytest.fixture
def rng():
    return random.Random(20260810)
