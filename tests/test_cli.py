import os
import subprocess
import sys

import pytest

import posetrep
from posetrep.cli import main
from posetrep.fileio import format_poset, load_poset, load_sspace, save_sspace
from posetrep.linalg import QQ, Subspace
from posetrep.sspace import SSpace


EX510_TEXT = """elements: a b c d e f g p
relations: p<a p<b p<c e<p e<d g<e g<f
"""


@pytest.fixture
def ex510_file(tmp_path):
    path = tmp_path / "ex510.poset"
    path.write_text(EX510_TEXT)
    return str(path)


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.poset"
    path.write_text("elements: x y z\nrelations:\n")
    return str(path)


def test_check_ok(ex510_file, capsys):
    assert main(["check", ex510_file]) == 0
    assert "width" in capsys.readouterr().out


def test_check_cycle(tmp_path, capsys):
    bad = tmp_path / "cyc.poset"
    bad.write_text("elements: a b\nrelations: a<b b<a\n")
    assert main(["check", str(bad)]) == 1
    assert "CycleDetected" in capsys.readouterr().err


def test_check_strict_self_relation(tmp_path, capsys):
    bad = tmp_path / "self.poset"
    bad.write_text("elements: a\nrelations: a<a\n")
    assert main(["check", str(bad)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("CycleDetected:"), captured.err
    assert captured.out == ""


def test_check_sspace_validates_monotonicity_once(tmp_path, capsys, monkeypatch):
    """Loading checks monotonicity; check reports a violation in one stderr
    line and exit 1, and checks a valid space only the once."""
    (tmp_path / "two.poset").write_text("elements: s t\nrelations: s<t\n")
    bad = tmp_path / "bad.ssp"
    bad.write_text("field: Q\nposet: two.poset\ndim: 2\nspace s: 1,0\nspace t: 0,1\n")
    assert main(["check", str(bad)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("MonotonicityViolation"), captured.err
    assert captured.out == ""

    calls = []
    real = posetrep.sspace.validate_sspace

    def counting(v):
        calls.append(v)
        return real(v)

    # the CLI may hold its own reference to the check: count that one too
    monkeypatch.setattr(posetrep.sspace, "validate_sspace", counting)
    monkeypatch.setattr(posetrep.cli, "validate_sspace", counting, raising=False)
    good = tmp_path / "good.ssp"
    good.write_text("field: Q\nposet: two.poset\ndim: 2\nspace s: 1,0\nspace t: 1,0\n")
    assert main(["check", str(good)]) == 0
    assert "ok: S-space over 2 elements" in capsys.readouterr().out
    assert len(calls) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["derive"])
    assert exc.value.code == 2


def test_dot(ex510_file, capsys):
    assert main(["dot", ex510_file]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 7
    assert '"p" -> "a";' in out


def test_derive_example(ex510_file, tmp_path, capsys):
    emitted = str(tmp_path / "derived.poset")
    assert main(["derive", ex510_file, "--point", "p", "--mode", "filter",
                 "--emit", emitted]) == 0
    out = capsys.readouterr().out
    assert "d^f" in out
    assert "d^f<d" in out and "d^f<f" in out
    derived = load_poset(emitted)
    assert set(derived.elements) == {"a", "b", "c", "d", "f", "d^f"}
    # round trip: emitted file re-parses to an equal poset
    assert format_poset(derived) == out


def test_derive_unknown_point(ex510_file, capsys):
    assert main(["derive", ex510_file, "--point", "zz", "--mode", "filter"]) == 1
    assert "UnknownLabel" in capsys.readouterr().err


def test_derive_not_applicable(tmp_path, capsys):
    path = tmp_path / "four.poset"
    path.write_text("elements: x y z w\nrelations:\n")
    assert main(["derive", str(path), "--point", "x", "--mode", "filter"]) == 1
    assert "NotApplicable" in capsys.readouterr().err


def test_diff_writes_files(three_file, tmp_path, capsys):
    p = load_poset(three_file)
    v = SSpace(p, QQ, 2, {
        "x": Subspace.from_rows(QQ, 2, [[1, 0]]),
        "y": Subspace.from_rows(QQ, 2, [[0, 1]]),
        "z": Subspace.from_rows(QQ, 2, [[1, 1]]),
    })
    vpath = tmp_path / "v.ssp"
    save_sspace(v, str(vpath), three_file)
    out = str(tmp_path / "dv.ssp")
    assert main(["diff", str(vpath), "--point", "x", "--mode", "filter",
                 "--out", out]) == 0
    image = load_sspace(out)
    assert image.dim == 1
    assert image.sub("y^z").is_zero()


def test_hom(three_file, tmp_path, capsys):
    p = load_poset(three_file)
    u = SSpace(p, QQ, 1, {s: Subspace.full(QQ, 1) for s in p.elements})
    save_sspace(u, str(tmp_path / "u.ssp"), three_file)
    assert main(["hom", str(tmp_path / "u.ssp"), str(tmp_path / "u.ssp")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dim 1")
    assert "basis 0: 1" in out


def test_apply_dual_and_res(three_file, tmp_path, capsys):
    p = load_poset(three_file)
    v = SSpace(p, QQ, 2, {"x": Subspace.from_rows(QQ, 2, [[1, 0]])})
    vpath = str(tmp_path / "v.ssp")
    save_sspace(v, vpath, three_file)
    out = str(tmp_path / "res.ssp")
    assert main(["apply", vpath, "--functor", "res", "--elements", "x,y",
                 "--out", out]) == 0
    assert set(load_sspace(out).poset.elements) == {"x", "y"}
    assert main(["apply", vpath, "--functor", "dual"]) == 0
    assert "field: Q" in capsys.readouterr().out
    assert main(["apply", vpath, "--functor", "Ep", "--point", "x",
                 "--out", str(tmp_path / "ep.ssp")]) == 0
    assert load_sspace(str(tmp_path / "ep.ssp")).dim == 1
    assert main(["apply", vpath, "--functor", "E^p", "--point", "x",
                 "--out", str(tmp_path / "eup.ssp")]) == 0
    assert load_sspace(str(tmp_path / "eup.ssp")).dim == 1


def test_apply_missing_flag(three_file, tmp_path, capsys):
    p = load_poset(three_file)
    v = SSpace(p, QQ, 1, {})
    vpath = str(tmp_path / "v.ssp")
    save_sspace(v, vpath, three_file)
    assert main(["apply", vpath, "--functor", "res"]) == 1
    assert "res needs --elements" in capsys.readouterr().err


def test_nu_plain_and_trace(three_file, capsys):
    assert main(["nu", three_file]) == 0
    assert capsys.readouterr().out.strip() == "nu=9"
    assert main(["nu", three_file, "--trace"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "nu=9"
    assert "point=x mode=filter a-count=3" in lines[0]


def test_nu_all_paths(tmp_path, capsys):
    path = tmp_path / "p112.poset"
    path.write_text("elements: x y u w\nrelations: u<w\n")
    assert main(["nu", str(path), "--strategy", "all-paths"]) == 0
    assert capsys.readouterr().out.strip() == "nu=15"


def test_oracle_table(three_file, capsys):
    assert main(["oracle", three_file, "--field", "2", "--maxdim", "2"]) == 0
    out = capsys.readouterr().out
    assert "dim | #classes | #indecomposable" in out
    lines = [l for l in out.strip().split("\n")[1:]]
    assert lines[0].split("|")[2].strip() == "8"
    assert lines[1].split("|")[2].strip() == "1"


def test_oracle_table_names_the_undecided_classes(tmp_path, capsys):
    """Over F_3 idempotent search leaves every dim-4 class of a 2-chain
    undecided; the table says so rather than reading as 0 indecomposables."""
    path = tmp_path / "two.poset"
    path.write_text("elements: a b\nrelations: a<b\n")
    assert main(["oracle", str(path), "--field", "3", "--maxdim", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-3] == "  4 |       15 |               0"
    assert lines[-2:] == ["(undecided classes: 15 at dim 4)",
                          "(isomorphism classing sampled at dim 4)"]


def test_oracle_cross_check_and_reps(three_file, tmp_path, capsys):
    """--reps writes the same files with --cross-check as without it."""
    assert main(["oracle", three_file, "--cross-check"]) == 0
    assert "nu=9" in capsys.readouterr().out
    reps = tmp_path / "reps"
    assert main(["oracle", three_file, "--reps", str(reps)]) == 0
    out = capsys.readouterr().out
    assert "wrote 9 representatives" in out
    assert load_sspace(f"{reps}/indec000.ssp").dim == 1
    both = tmp_path / "both"
    assert main(["oracle", three_file, "--cross-check", "--reps", str(both)]) == 0
    out = capsys.readouterr().out
    assert "nu=9" in out and "wrote 9 representatives" in out
    written = sorted(path.name for path in reps.iterdir())
    assert sorted(path.name for path in both.iterdir()) == written
    for name in written:
        assert (both / name).read_bytes() == (reps / name).read_bytes()


def test_oracle_guardrail(tmp_path, capsys):
    path = tmp_path / "big.poset"
    path.write_text("elements: a b c d e f g\nrelations:\n")
    assert main(["oracle", str(path)]) == 1
    assert "GuardrailExceeded" in capsys.readouterr().err


def test_oracle_takes_no_seed(three_file, capsys):
    """The sampled census always draws from seed 0; --seed is not an option."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle", three_file, "--seed", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""


def test_verify_smoke(capsys):
    assert main(["verify", "--cases", "4",
                 "--only", "diff-direct-vs-composite,nu-path-independence"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "diff-direct-vs-composite" in out


def test_verify_unknown_check_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cases", "1", "--only", "nu-path-independence,nosuch"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unknown check 'nosuch'" in captured.err
    assert captured.out == ""


def test_determinism(ex510_file, capsys):
    main(["derive", ex510_file, "--point", "p", "--mode", "filter"])
    first = capsys.readouterr().out
    main(["derive", ex510_file, "--point", "p", "--mode", "filter"])
    assert capsys.readouterr().out == first
    main(["nu", ex510_file, "--trace"])
    t1 = capsys.readouterr().out
    main(["nu", ex510_file, "--trace"])
    assert capsys.readouterr().out == t1


# malformed input ------------------------------------------------------------------

SSP_HEAD = "field: Q\nposet: three.poset\n"
MALFORMED = {
    "dim-not-a-number": ["check", "bad.ssp"],
    "dim-negative": ["check", "bad.ssp"],
    "dim-beyond-int-digits": ["check", "bad.ssp"],
    "entry-divides-by-zero": ["check", "bad.ssp"],
    "field-twice": ["check", "bad.ssp"],
    "poset-twice": ["check", "bad.ssp"],
    "dim-twice": ["check", "bad.ssp"],
    "space-twice-for-a-label": ["check", "bad.ssp"],
    "poset-file-missing": ["check", "bad.ssp"],
    "input-path-missing": ["nu", "missing.poset"],
    "oracle-field-not-prime": ["oracle", "three.poset", "--field", "4"],
    "relation-token-with-two-signs": ["check", "bad.poset"],
    "relation-token-without-upper-label": ["check", "bad.poset"],
}
POSET_BODY = {
    "relation-token-with-two-signs": "elements: a b c\nrelations: a<b<c\n",
    "relation-token-without-upper-label": "elements: a b\nrelations: a<\n",
}
SSP_BODY = {
    "dim-not-a-number": SSP_HEAD + "dim: two\n",
    "dim-beyond-int-digits": SSP_HEAD + "dim: " + "9" * 5000 + "\n",
    "dim-negative": SSP_HEAD + "dim: -1\n",
    "entry-divides-by-zero": SSP_HEAD + "dim: 2\nspace x: 1/0,1\n",
    "field-twice": SSP_HEAD + "dim: 1\nfield: F 5\n",
    "poset-twice": SSP_HEAD + "dim: 1\nposet: three.poset\n",
    "dim-twice": SSP_HEAD + "dim: 2\ndim: 1\n",
    "space-twice-for-a-label": SSP_HEAD + "dim: 2\nspace x: 1,0\nspace x: 0,1\n",
    "poset-file-missing": "field: Q\nposet: nowhere.poset\ndim: 1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_typed_error_line(case, tmp_path):
    (tmp_path / "three.poset").write_text("elements: x y z\nrelations:\n")
    if case in SSP_BODY:
        (tmp_path / "bad.ssp").write_text(SSP_BODY[case])
    if case in POSET_BODY:
        (tmp_path / "bad.poset").write_text(POSET_BODY[case])
    src = os.path.dirname(os.path.dirname(os.path.abspath(posetrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "posetrep.cli", *MALFORMED[case]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert lines[0].split(":")[0] in {"ParseError", "InvalidField"}
    assert proc.stdout == ""


def test_oracle_subspace_cap_is_one_error_line(tmp_path):
    """F_65521^2 has 65524 subspaces: refused up front, not run for hours."""
    (tmp_path / "one.poset").write_text("elements: a\nrelations:\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(posetrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "posetrep.cli", "oracle", "one.poset",
                           "--field", "65521", "--maxdim", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("GuardrailExceeded: 65524 subspaces")
    assert proc.stdout == ""


UNWRITABLE = {
    "diff-out": ["diff", "v.ssp", "--point", "x", "--mode", "filter", "--out", "nodir/d.ssp"],
    "diff-out-is-a-directory": ["diff", "v.ssp", "--point", "x", "--mode", "filter",
                                "--out", "outdir/"],
    "apply-out": ["apply", "v.ssp", "--functor", "dual", "--out", "nodir/a.ssp"],
    "apply-out-is-a-directory": ["apply", "v.ssp", "--functor", "dual", "--out", "outdir/"],
    "derive-emit": ["derive", "three.poset", "--point", "x", "--mode", "filter",
                    "--emit", "nodir/d.poset"],
    "oracle-reps-under-a-file": ["oracle", "three.poset", "--reps", "three.poset/reps"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_is_one_typed_error_line(case, tmp_path):
    (tmp_path / "three.poset").write_text("elements: x y z\nrelations:\n")
    (tmp_path / "v.ssp").write_text(
        "field: Q\nposet: three.poset\ndim: 2\nspace x: 1,0\nspace y: 0,1\nspace z: 1,1\n")
    (tmp_path / "outdir").mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(posetrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "posetrep.cli", *UNWRITABLE[case]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert lines[0].startswith("WriteError: cannot ")
    assert not (tmp_path / "nodir").exists()
    assert list((tmp_path / "outdir").iterdir()) == []  # no stray .poset either


@pytest.mark.parametrize("argv", [
    ["verify", "--cases", "0"],
    ["verify", "--cases", "-3"],
    ["nu", "any.poset", "--depth-limit", "-1"],
    ["oracle", "any.poset", "--maxdim", "0"],
])
def test_meaningless_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_depth_limit_zero_is_accepted(three_file, tmp_path, capsys):
    chain_file = tmp_path / "chain.poset"
    chain_file.write_text("elements: a b\nrelations: a<b\n")
    assert main(["nu", str(chain_file), "--depth-limit", "0"]) == 0
    assert capsys.readouterr().out.strip() == "nu=3"
    assert main(["nu", three_file, "--depth-limit", "0"]) == 0
    assert capsys.readouterr().out.strip() == "nu=depth-limit"


# The poset and the two spaces of the hash-seed step in CI: s has two lower
# covers a and b, whose lines share a pivot column.
COVERS_POSET = "elements: a b s c\nrelations: a<s b<s s<c\n"
HOM_SPACES = {
    "u.ssp": "field: Q\nposet: covers.poset\ndim: 3\nspace a: 1,0,0\nspace b: 1,1,0\n"
             "space s: 1,0,0 ; 0,1,0 ; 0,0,1\nspace c: 1,0,0 ; 0,1,0 ; 0,0,1\n",
    "v.ssp": "field: Q\nposet: covers.poset\ndim: 3\nspace a: 1,2,0\nspace b: 0,1/2,1\n"
             "space s: 1,2,0 ; 0,1/2,1\nspace c: 1,2,0 ; 0,1/2,1\n",
    "u5.ssp": "field: F 5\nposet: covers.poset\ndim: 3\nspace a: 1,0,0\nspace b: 0,1,0\n"
              "space s: 1,0,0 ; 0,1,0\nspace c: 1,0,0 ; 0,1,0 ; 0,0,1\n",
    "v5.ssp": "field: F 5\nposet: covers.poset\ndim: 3\nspace a: 1,2,0\nspace b: 1,2,0\n"
              "space s: 1,2,0 ; 0,0,1\nspace c: 1,2,0 ; 0,0,1\n",
}
HOM_OUTPUTS = {
    ("u.ssp", "v.ssp"): "dim 4\n"
                        "basis 0: 1,2,0 ; -1,0,4 ; 0,0,0\n"
                        "basis 1: 0,0,0 ; 0,1,2 ; 0,0,0\n"
                        "basis 2: 0,0,0 ; 0,0,0 ; 1,0,-4\n"
                        "basis 3: 0,0,0 ; 0,0,0 ; 0,1,2\n",
    ("v.ssp", "u.ssp"): "dim 5\n"
                        "basis 0: 1,0,0 ; 0,0,0 ; 0,0,0\n"
                        "basis 1: 0,1,0 ; 0,-1/2,0 ; 0,1/4,0\n"
                        "basis 2: 0,0,1 ; 0,0,-1/2 ; 0,0,1/4\n"
                        "basis 3: 0,0,0 ; 1,0,0 ; 0,1/2,0\n"
                        "basis 4: 0,0,0 ; 0,0,0 ; 1,1,0\n",
    ("u5.ssp", "v5.ssp"): "dim 4\n"
                          "basis 0: 1,2,0 ; 0,0,0 ; 0,0,0\n"
                          "basis 1: 0,0,0 ; 1,2,0 ; 0,0,0\n"
                          "basis 2: 0,0,0 ; 0,0,0 ; 1,2,0\n"
                          "basis 3: 0,0,0 ; 0,0,0 ; 0,0,1\n",
}


@pytest.mark.parametrize("pair", sorted(HOM_OUTPUTS), ids="-".join)
def test_hom_prints_the_pinned_basis(pair, tmp_path, capsys):
    """The whole stdout of `posetrep hom`, over Q both ways and over F_5."""
    (tmp_path / "covers.poset").write_text(COVERS_POSET)
    for name, text in HOM_SPACES.items():
        (tmp_path / name).write_text(text)
    assert main(["hom"] + [str(tmp_path / name) for name in pair]) == 0
    assert capsys.readouterr().out == HOM_OUTPUTS[pair]


def test_oracle_refuses_a_reps_directory_of_an_earlier_run(tmp_path):
    """A second run into the same --reps directory would replace base.poset
    and leave the first run's extra indecNNN.ssp files behind, which then
    fail to load: it is refused before the census, and nothing is written."""
    (tmp_path / "three.poset").write_text("elements: a b c\nrelations:\n")
    (tmp_path / "one.poset").write_text("elements: a\nrelations:\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(posetrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def oracle(poset, reps):
        return subprocess.run([sys.executable, "-m", "posetrep.cli", "oracle", poset,
                               "--field", "2", "--maxdim", "2", "--reps", reps],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)

    assert oracle("three.poset", "reps").returncode == 0
    first = {path.name: path.read_bytes() for path in (tmp_path / "reps").iterdir()}
    assert len(first) == 10  # base.poset and 9 representatives
    proc = oracle("one.poset", "reps")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "WriteError: 'reps' already holds the representatives of an earlier run; "
        "give an empty or new directory"]
    assert proc.stdout == ""
    assert {path.name: path.read_bytes() for path in (tmp_path / "reps").iterdir()} == first
    (tmp_path / "empty").mkdir()
    assert oracle("one.poset", "empty").returncode == 0
    assert sorted(path.name for path in (tmp_path / "empty").iterdir()) == [
        "base.poset", "indec000.ssp", "indec001.ssp"]
