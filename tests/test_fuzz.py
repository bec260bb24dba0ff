"""A seeded fuzz run over the file parsers and the command line.

Every mutated .poset or .ssp text parses or raises a PosetRepError, and a
poset that parses writes out and reads back as itself.  Every mutated
command exits 0, exits 1 with one stderr line, or exits 2 with argparse's
usage, and never prints a traceback.  The mutator is the standard
library's `random`, seeded, so every run tries the same inputs.
"""

import os
import random
import subprocess
import sys

import posetrep
from posetrep.errors import PosetRepError
from posetrep.fileio import format_poset, parse_poset, parse_sspace

POSET_TEXTS = [
    "elements: a b c d\nrelations: a<b b<c a<d\n",
    "elements: x y z\nrelations:\n",
    "# two points\nelements: p q\nrelations: p<q  # a cover\n",
]
SSPACE_TEXTS = [
    "field: Q\nposet: p.poset\ndim: 2\nspace a: 1,0\nspace b: 1,0 ; 0,1/2\n",
    "field: F 5\nposet: p.poset\ndim: 3\nspace a: 1,2,3\nspace c: 1,0,0 ; 0,1,0\n",
    "field: F 2\nposet: p.poset\ndim: 1\nspace d: 1\n",
]
# Separators of both formats, numbers no field holds or int() refuses
# (more than 4300 digits), NUL, non-ASCII and line breaks that
# str.splitlines() knows, and whole keywords.
TEXT_TOKENS = ["<", ":", ";", ",", "/", "#", "-", "1/0", "0/0", "-0", "9" * 40, "9" * 5000,
               "-" + "7" * 4400, "\x00", "\u00e9", "\u03c9", "\u2028", "\u00a0", "\x1c",
               "\r", "\t", " ", "\n",
               "elements:", "relations:", "space a:", "space b: 1", "dim:", "dim: 2",
               "field: F 4", "field: Q", "F 65537", "poset:", "a<a", "b<a", "a<b<c"]
MUTATIONS_PER_TEXT = 300


def mutate(rng, text, tokens):
    """One to three edits: a token inserted, a span deleted, a character
    replaced by a token, or a line repeated."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(4)
        if kind == 0:
            text = text[:i] + rng.choice(tokens) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + rng.randrange(1, 9):]
        elif kind == 2:
            text = text[:i] + rng.choice(tokens) + text[i + 1:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            k = rng.randrange(len(lines))
            text = "".join(lines[:k + 1] + lines[k:])
    return text


def test_mutated_files_parse_or_raise_a_typed_error():
    rng = random.Random(16)
    outcomes = {"parsed": 0, "refused": 0}

    def attempt(parse, text):
        try:
            out = parse(text)
        except PosetRepError:
            outcomes["refused"] += 1
            return None
        outcomes["parsed"] += 1
        return out

    for base in POSET_TEXTS:
        for _ in range(MUTATIONS_PER_TEXT):
            p = attempt(parse_poset, mutate(rng, base, TEXT_TOKENS))
            if p is not None:
                back = attempt(parse_poset, format_poset(p))
                assert back == p and back.elements == p.elements
    posets = POSET_TEXTS + [mutate(rng, POSET_TEXTS[0], TEXT_TOKENS) for _ in range(20)]
    for base in SSPACE_TEXTS:
        for _ in range(MUTATIONS_PER_TEXT):
            poset_text = rng.choice(posets)
            attempt(lambda t: parse_sspace(t, lambda rel: parse_poset(poset_text)),
                    mutate(rng, base, TEXT_TOKENS))
    # The mutator neither always breaks its input nor always spares it.
    assert min(outcomes.values()) > MUTATIONS_PER_TEXT // 2, outcomes


# Arguments of commands that finish at once on the files below, whatever one
# argument is replaced by; NUL is left out, as no argv can carry it.
COMMANDS = [
    ["check", "p.poset"], ["check", "v.ssp"], ["dot", "p.poset"],
    ["derive", "p.poset", "--point", "a", "--mode", "filter"],
    ["nu", "p.poset", "--depth-limit", "3"],
    ["oracle", "p.poset", "--field", "2", "--maxdim", "1"],
    ["diff", "v.ssp", "--point", "a", "--mode", "ideal", "--out", "d.ssp"],
    ["apply", "v.ssp", "--functor", "res", "--elements", "a,b"],
]
ARG_TOKENS = ["<", ":", ";", "1/0", "-1", "0", "9" * 40, "\u00e9", "", "a<b", "x:y", "--bogus",
              "nowhere.poset", "v.ssp", "p.poset", "ideal"]
MUTATED_COMMANDS = 5


def test_mutated_commands_exit_cleanly(tmp_path):
    (tmp_path / "p.poset").write_text(POSET_TEXTS[0])
    (tmp_path / "v.ssp").write_text(SSPACE_TEXTS[0])
    src = os.path.dirname(os.path.dirname(os.path.abspath(posetrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    rng = random.Random(16)
    for _ in range(MUTATED_COMMANDS):
        argv = list(rng.choice(COMMANDS))
        argv[rng.randrange(len(argv))] = rng.choice(ARG_TOKENS)
        proc = subprocess.run([sys.executable, "-m", "posetrep.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        if proc.returncode == 1:
            assert len(proc.stderr.splitlines()) == 1, (argv, proc.stderr)
        elif proc.returncode == 2:
            assert proc.stderr.startswith("usage:"), (argv, proc.stderr)
        else:
            assert proc.returncode == 0, (argv, proc.returncode, proc.stderr)
