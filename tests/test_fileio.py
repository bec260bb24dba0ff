import random
from fractions import Fraction
from itertools import product

import pytest

from posetrep.differentiation import derive_poset
from posetrep.errors import (CycleDetected, InvalidLabel,
                             MonotonicityViolation, ParseError)
from posetrep.fileio import (format_poset, format_sspace, load_sspace,
                             parse_poset, parse_sspace, save_poset, save_sspace)
from posetrep.linalg import QQ, Field, Subspace
from posetrep.poset import Poset, applicable_moves
from posetrep.randgen import random_sspace
from posetrep.sspace import SSpace
from posetrep.verify import all_posets_up_to

from helpers import example510

F5 = Field.prime(5)

EX510 = """\
# the running example
elements: a b c d e f g p
relations: p<a p<b p<c e<p e<d g<e g<f
"""


def test_parse_poset_example():
    p = parse_poset(EX510)
    assert p == example510()


def test_poset_round_trip():
    p = example510()
    assert parse_poset(format_poset(p)) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poset("relations: a<b")
    with pytest.raises(ParseError):
        parse_poset("elements: a b\nrelations: ab")
    with pytest.raises(CycleDetected):
        parse_poset("elements: a b\nrelations: a<b b<a")


@pytest.mark.parametrize("label", ["velocity", "v1", "x^y", "a^b'", "{.}"])
def test_labels_outside_the_split_characters_are_accepted(label):
    p = parse_poset(f"elements: a {label}\nrelations: a<{label}\n")
    assert p.elements == ("a", label) and p.lt("a", label)


@pytest.mark.parametrize("label", ["a:b", "x<y", ":", "<"])
def test_labels_with_split_characters_are_refused_on_read(label):
    with pytest.raises(InvalidLabel):
        parse_poset(f"elements: a {label}\nrelations:\n")


BAD_LABELS = ["a b", "a#b", "a<b", "a:b", "", "a\tb"]


@pytest.mark.parametrize("label", BAD_LABELS)
def test_labels_the_formats_cannot_carry_are_refused_on_write(tmp_path, label):
    p = Poset.build(["ok", label], [("ok", label)])
    with pytest.raises(InvalidLabel):
        save_poset(p, str(tmp_path / "p.poset"))
    with pytest.raises(InvalidLabel):
        save_sspace(SSpace(p, QQ, 1, {label: Subspace.full(QQ, 1)}), str(tmp_path / "v.ssp"))
    with pytest.raises(InvalidLabel):
        save_sspace(SSpace(p, F5, 1, {}), str(tmp_path / "w.ssp"), str(tmp_path / "w.poset"))
    assert list(tmp_path.iterdir()) == []


def test_derived_header_still_loads():
    text = "elements-derived: d f d^f\nrelations: d^f<d d^f<f\n"
    p = parse_poset(text)
    assert p.lt("d^f", "d")
    assert format_poset(p) == text.replace("elements-derived:", "elements:")
    with pytest.raises(ParseError):
        parse_poset(text + "elements: x\n")


# Labels of one or two characters, among them the characters that rendered
# names of derived posets use, so that those names are built on them.
LABEL_ALPHABET = "ab^v'.{}"
LABELS = [*LABEL_ALPHABET, *map("".join, product(LABEL_ALPHABET, repeat=2))]


def _relabelled(p, rng):
    names = dict(zip(p.elements, rng.sample(LABELS, len(p))))
    return Poset.build([names[x] for x in p.elements],
                       [(names[a], names[b]) for a, b in p.covers()])


def test_posets_and_sspaces_round_trip_through_files(tmp_path):
    """Every poset of at most 4 points under a seeded relabelling, and its
    derived poset at every applicable (point, mode), comes back from its
    text; a seeded S-space over F_5 and one over Q on each of them come
    back from their files."""
    rng = random.Random(26)
    posets = []
    for p in all_posets_up_to(4):
        q = _relabelled(p, rng)
        posets.append(q)
        posets += [derive_poset(q, x, mode).result for x, mode in applicable_moves(q)]
    assert any("'" in x for q in posets for x in q.elements)
    path = str(tmp_path / "v.ssp")
    for q in posets:
        assert parse_poset(format_poset(q)) == q
        for field in (F5, QQ):
            v = random_sspace(rng, q, field)
            save_sspace(v, path)
            assert load_sspace(path) == v


def test_sspace_round_trip(tmp_path):
    p = example510()
    v = SSpace(p, QQ, 2, {
        "p": Subspace.from_rows(QQ, 2, [[1, "1/2"]]),
        "a": Subspace.full(QQ, 2),
        "b": Subspace.full(QQ, 2),
        "c": Subspace.full(QQ, 2),
    })
    assert "1/2" in format_sspace(v, "x.poset")
    path = tmp_path / "v.ssp"
    save_sspace(v, str(path))
    again = load_sspace(str(path))
    assert again == v
    assert (tmp_path / "v.poset").exists()


def test_sspace_prime_field(tmp_path):
    p = Poset.build(["s", "t"], [("s", "t")])
    f5 = Field.prime(5)
    v = SSpace(p, f5, 3, {"s": Subspace.from_rows(f5, 3, [[1, 2, 3]]),
                          "t": Subspace.from_rows(f5, 3, [[1, 2, 3], [0, 1, 4]])})
    path = tmp_path / "w.ssp"
    save_sspace(v, str(path))
    assert load_sspace(str(path)) == v


def test_sspace_monotonicity_checked_on_load():
    # s < t but only s carries a nonzero subspace
    bad = "field: Q\nposet: ignored\ndim: 1\nspace s: 1\n"

    def loader(_):
        return Poset.build(["s", "t"], [("s", "t")])

    with pytest.raises(MonotonicityViolation):
        parse_sspace(bad, loader)


def test_sspace_parse_errors():
    def loader(_):
        return Poset.build(["s"], [])

    with pytest.raises(ParseError):
        parse_sspace("poset: x\ndim: 1", loader)
    with pytest.raises(ParseError):
        parse_sspace("field: Q\nposet: x\ndim: 2\nspace s: 1\n", loader)
    with pytest.raises(ParseError):
        parse_sspace("field: F 6\nposet: x\ndim: 1\n", loader)


def test_scalars_are_integers_or_fractions_over_either_field():
    def loader(_):
        return Poset.build(["s"], [])

    def row(field, vector):
        v = parse_sspace(f"field: {field}\nposet: x\ndim: 3\nspace s: {vector}\n", loader)
        return v.sub("s").mat.rows[0]

    assert row("Q", "1, 3/2, -4") == (1, Fraction(3, 2), -4)
    assert row("F 5", "1, 7, 1/2") == (1, 2, 3)
    assert row("F 5", "1, -1, -3/4") == (1, 4, 3)
    for field, bad in [("F 5", "1/5"), ("F 5", "2/10"), ("Q", "1/0"), ("F 5", "1/0"),
                       ("Q", "1.5"), ("Q", "1/2/3"), ("F 5", "x"), ("Q", "/2")]:
        with pytest.raises(ParseError):
            row(field, f"1, 0, {bad}")


def test_sspace_omitted_elements_default_to_zero():
    def loader(_):
        return Poset.build(["s", "t"], [("s", "t")])

    v = parse_sspace("field: F 2\nposet: x\ndim: 2\nspace t: 1,0\n", loader)
    assert v.sub("s").is_zero()
    assert v.sub("t").dim == 1


def test_sspace_with_a_huge_dim_and_no_vectors_parses_at_once():
    """An empty space line is 0 at any dim: its elimination has no rows
    and looks at none of the dim columns."""
    def loader(_):
        return Poset.build(["s", "t"], [("s", "t")])

    v = parse_sspace("field: Q\nposet: x\ndim: " + "9" * 30 + "\nspace s:\n", loader)
    assert v.dim == 10 ** 30 - 1 and v.sub("s").is_zero() and v.sub("t").is_zero()
