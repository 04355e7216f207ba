from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from grpd import (  # noqa: E402
    affine_cyclic,
    complex_pair,
    norm_from_sip,
    pair_groupoid,
    sip_from_thetas,
    validate_sip,
)

from corpus import random_groupoid, random_hom, random_separating_family  # noqa: E402


@pytest.fixture(scope="session")
def p2():
    return pair_groupoid(2)


@pytest.fixture(scope="session")
def p3():
    return pair_groupoid(3)


@pytest.fixture(scope="session")
def p5():
    return pair_groupoid(5)


@pytest.fixture(scope="session")
def a3():
    return affine_cyclic(3)


@pytest.fixture(scope="session")
def c4():
    return complex_pair(2)


@pytest.fixture(scope="session")
def p2_sip(p2):
    groupoid, homs = p2
    return sip_from_thetas(groupoid, [homs["theta"]])


@pytest.fixture(scope="session")
def p5_sip(p5):
    groupoid, homs = p5
    return sip_from_thetas(groupoid, [homs["theta"]])


@pytest.fixture(scope="session")
def c4_sip(c4):
    groupoid, homs = c4
    return sip_from_thetas(groupoid, [homs["theta"]])


@pytest.fixture(scope="session")
def p5_norm(p5_sip):
    return norm_from_sip(validate_sip(p5_sip))


@pytest.fixture(scope="session")
def p2_norm(p2_sip):
    return norm_from_sip(validate_sip(p2_sip))


@pytest.fixture(scope="session")
def hom_corpus():
    """100 random homomorphisms on random groupoids of at most 8 objects."""
    rng = random.Random(20260808)
    out = []
    for i in range(100):
        cg = random_groupoid(rng)
        out.append((cg, random_hom(rng, cg, mono=i % 3 == 0)))
    return out


@pytest.fixture(scope="session")
def family_corpus():
    """100 jointly separating scalar homomorphism families on torsion-free
    random groupoids."""
    rng = random.Random(1123581321)
    out = []
    for _ in range(100):
        cg = random_groupoid(rng, torsion_free=True, max_arrows=36)
        out.append((cg, random_separating_family(rng, cg)))
    return out
