"""Text formats.

A .poset file:

    # comment
    elements: a b c
    relations: a<b b<c

Relations may be any generating set; the closure is computed on load.  Each
relation token is two labels around one '<'.  A label is a nonempty token
with no whitespace and none of '#', '<' or ':', the characters the two
formats split on; any other character may appear, so the rendered names
of derived posets (a^b, avb, a^b') are labels like any other.  Labels are
checked on read and before anything is written (`InvalidLabel`).  The
header `elements-derived:`, written by earlier versions for derived
posets, is read as `elements:`.

An .ssp file:

    field: Q            (or: field: F 5)
    poset: relative/path.poset
    dim: 3
    space a: 1,0,0 ; 0,1,0
    space b: 1/2,0,1

A scalar is an integer or a/b over either field; over F_p a/b is
a * b^-1, and a denominator divisible by p is a `ParseError`.  Omitted
elements get the zero subspace; vectors are canonicalized on load and
monotonicity is validated.  The field:, poset: and dim: lines, and the
space line of each element, may each appear once.

This module is the one place that knows the text syntax: `linalg` holds
scalars, and `posetrep hom` prints its vectors through `format_rows`.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import InvalidLabel, ParseError, WriteError
from .linalg import Field, Subspace
from .poset import Poset
from .sspace import SSpace


def _strip_comments(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _check_labels(labels):
    for x in labels:
        if not (isinstance(x, str) and x.split() == [x]
                and "#" not in x and "<" not in x and ":" not in x):
            raise InvalidLabel(f"label {x!r} is empty or holds whitespace, "
                               "'#', '<' or ':'")


def parse_poset(text: str) -> Poset:
    elements = None
    relations = []
    for line in _strip_comments(text):
        if line.startswith(("elements:", "elements-derived:")):
            if elements is not None:
                raise ParseError("duplicate elements line")
            elements = line.partition(":")[2].split()
            _check_labels(elements)
        elif line.startswith("relations:"):
            for token in line[len("relations:"):].split():
                a, _, b = token.partition("<")
                if not a or not b or "<" in b:
                    raise ParseError(f"bad relation token {token!r}")
                relations.append((a, b))
        else:
            raise ParseError(f"unrecognized line {line!r}")
    if elements is None:
        raise ParseError("missing elements line")
    return Poset.build(elements, relations)


def format_poset(p: Poset) -> str:
    _check_labels(p.elements)
    rel = " ".join(f"{a}<{b}" for a, b in p.covers())
    return f"elements: {' '.join(p.elements)}\nrelations: {rel}\n"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path!r} is not UTF-8 text") from None


def load_poset(path: str) -> Poset:
    return parse_poset(_read(path))


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def save_poset(p: Poset, path: str):
    _write(path, format_poset(p))


def _parse_field(spec: str) -> Field:
    parts = spec.split()
    if parts == ["Q"]:
        return Field.rationals()
    if len(parts) == 2 and parts[0] == "F":
        try:
            return Field.prime(int(parts[1]))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"bad field spec {spec!r}")


def format_field(field: Field) -> str:
    return "Q" if field.p is None else f"F {field.p}"


def _parse_scalar(field: Field, token: str):
    """An integer or a/b, as an element of field; InvalidScalar (a
    denominator divisible by p) is a ValueError, so it is a ParseError too."""
    num, slash, den = token.partition("/")
    try:
        return field.coerce(Fraction(int(num), int(den)) if slash else int(num))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad scalar {token.strip()!r}") from None


def format_rows(rows) -> str:
    """Vectors as the .ssp files and `posetrep hom` write them: entries
    joined by ',', vectors by ' ; '."""
    return " ; ".join(",".join(map(str, row)) for row in rows)


def parse_sspace(text: str, poset_loader) -> SSpace:
    """poset_loader maps the poset: path to a Poset; injected so parsing
    stays testable without touching the filesystem."""
    head = {}
    raw_spaces = {}
    for line in _strip_comments(text):
        key, colon, body = line.partition(":")
        if key in ("field", "poset", "dim"):
            if key in head:
                raise ParseError(f"duplicate {key}: line")
            head[key] = body.strip()
        elif key.startswith("space "):
            if not colon:
                raise ParseError(f"bad space line {line!r}")
            label = key[len("space "):].strip()
            if label in raw_spaces:
                raise ParseError(f"duplicate space line for {label!r}")
            raw_spaces[label] = body.strip()
        else:
            raise ParseError(f"unrecognized line {line!r}")
    if len(head) < 3:
        raise ParseError("need field:, poset:, and dim: lines")
    field = _parse_field(head["field"])
    poset = poset_loader(head["poset"])
    text = head["dim"]
    try:  # int() refuses more than 4300 digits
        dim = int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        dim = None
    if dim is None:
        raise ParseError(f"dim must be a non-negative integer, got {text!r}")
    assign = {}
    for label, vectors in raw_spaces.items():
        rows = []
        if vectors:
            for vec in vectors.split(";"):
                entries = [_parse_scalar(field, tok)
                           for tok in vec.strip().split(",") if tok.strip()]
                if len(entries) != dim:
                    raise ParseError(f"vector of length {len(entries)}, dim is {dim}")
                rows.append(entries)
        assign[label] = Subspace.from_rows(field, dim, rows)
    return SSpace(poset, field, dim, assign)


def format_sspace(v: SSpace, poset_path: str) -> str:
    _check_labels(v.poset.elements)
    lines = [f"field: {format_field(v.field)}", f"poset: {poset_path}", f"dim: {v.dim}"]
    for s in v.poset.elements:
        sub = v.sub(s)
        if sub.is_zero():
            continue
        lines.append(f"space {s}: {format_rows(sub.mat.rows)}")
    return "\n".join(lines) + "\n"


def load_sspace(path: str) -> SSpace:
    base = os.path.dirname(os.path.abspath(path))

    def loader(rel):
        return load_poset(rel if os.path.isabs(rel) else os.path.join(base, rel))

    return parse_sspace(_read(path), loader)


def save_sspace(v: SSpace, path: str, poset_path: str = None):
    """Write the space, then its poset next to it when no poset file is
    already referenced; a space that cannot be written leaves no poset."""
    own_poset = poset_path is None
    poset_path = poset_path or os.path.splitext(path)[0] + ".poset"
    rel = os.path.relpath(poset_path, os.path.dirname(os.path.abspath(path)) or ".")
    _write(path, format_sspace(v, rel))
    if own_poset:
        save_poset(v.poset, poset_path)
