import random

import pytest

from posetrep import verify

# simples-census is acceptance criterion 9 (tests/test_acceptance.py).
CHECKS = [(name, fn) for name, fn in verify.REGISTRY if name != "simples-census"]


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_verify_check_passes(name, check):
    outcome = check(random.Random(verify.DEFAULT_SEED), 30)
    assert outcome.name == name
    assert outcome.cases > 0
    assert outcome.ok, outcome.failures[:3]
