"""Fixed posets the suites keep coming back to."""

from posetrep.poset import Poset


def chain(*labels):
    return Poset.build(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def chain_sum(*lengths):
    """Disjoint union of chains of the given lengths, labelled a0 < a1 < ...,
    b0 < b1 < ... and so on."""
    elements, relations = [], []
    for c, n in enumerate(lengths):
        names = [f"{chr(ord('a') + c)}{k}" for k in range(n)]
        elements += names
        relations += list(zip(names, names[1:]))
    return Poset.build(elements, relations)


def antichain_poset(*labels):
    return Poset.build(labels, [])


def example510():
    """Eight-element poset with p under a,b,c and e,g under p; the running
    worked example for filter differentiation."""
    return Poset.build(
        "abcdefgp",
        [("p", "a"), ("p", "b"), ("p", "c"),
         ("e", "p"), ("e", "d"),
         ("g", "e"), ("g", "f")],
    )


def poset_112():
    """Disjoint union of two points and a 2-chain."""
    return Poset.build(["x", "y", "u", "v"], [("u", "v")])
