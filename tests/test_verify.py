import hashlib
import random
from itertools import combinations, permutations

import pytest

from posetrep import verify
from posetrep.poset import Poset

# simples-census is acceptance criterion 9 (tests/test_acceptance.py).
CHECKS = [(name, fn) for name, fn in verify.REGISTRY if name != "simples-census"]


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_verify_check_passes(name, check):
    outcome = check(random.Random(verify.DEFAULT_SEED), 30)
    assert outcome.name == name
    assert outcome.cases > 0
    assert outcome.ok, outcome.failures[:3]


def reference_posets_up_to(n):
    """The posets of at most n points by closing every relation mask and
    keeping the least sorted list of strict index pairs over all
    relabelings, as a check on the growth enumerator."""
    out = []
    for k in range(n + 1):
        labels = [f"e{i}" for i in range(k)]
        pairs = list(combinations(range(k), 2))
        perms = list(permutations(range(k)))
        closures, seen = set(), set()
        for mask in range(1 << len(pairs)):
            rel = [(labels[i], labels[j]) for b, (i, j) in enumerate(pairs)
                   if mask >> b & 1]
            p = Poset.build(labels, rel)
            strict = tuple((i, j) for i, j in pairs if p.leq(labels[i], labels[j]))
            if strict in closures:
                continue  # an earlier mask closed to the same poset
            closures.add(strict)
            canon = tuple(min(sorted((perm[i], perm[j]) for i, j in strict)
                              for perm in perms))
            if canon not in seen:
                seen.add(canon)
                out.append(p)
    return out


def _described(posets):
    return [(list(p.elements), p.covers()) for p in posets]


def test_all_posets_up_to_matches_the_closure_reference():
    got, want = verify.all_posets_up_to(5), reference_posets_up_to(5)
    assert _described(got) == _described(want)
    assert got == want


def test_all_posets_up_to_six_counts_and_digest():
    """Per-size counts of OEIS A000112, and the list itself by digest."""
    posets = verify.all_posets_up_to(6)
    assert [sum(len(p) == k for p in posets) for k in range(7)] == [1, 1, 2, 5, 16, 63, 318]
    text = repr(_described(posets)).encode()
    assert hashlib.sha1(text).hexdigest() == "7cb4c1ed71ffc3ec7f6ff966c2cd8d49c8a37350"
