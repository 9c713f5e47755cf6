"""CLI behavior through main(argv): output shape, exit codes, determinism."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import binbasis
from binbasis.cli import RunConfig, main, resolve_field
from binbasis.oracle import oracle_convert
from binbasis.transforms import CountModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_section(title):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8").split(f"\n## {title}\n")[1].split("\n## ")[0]


def test_readme_examples(capsys):
    # Each `$ binbasis ...` example in README's Command line section prints
    # the block shown under it, where a `...` line stands for skipped lines.
    section = readme_section("Command line")
    examples = re.findall(r"^```\n(\$ binbasis .*?)^```", section, re.S | re.M)
    assert examples
    for command, *shown in map(str.splitlines, examples):
        code, out, err = run(capsys, *shlex.split(command)[2:])
        assert (code, err) == (0, ""), command
        pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        assert re.fullmatch(pattern, out), command


def test_readme_library_use(capsys):
    # README's Library use block runs, converts as the oracle does and
    # prints the counts that CountModel replays for it.
    (block,) = re.findall(r"^```python\n(.*?)^```", readme_section("Library use"),
                          re.S | re.M)
    scope = {}
    exec(block, scope)
    adds, muls, twists = CountModel(scope["table"]).convert("newton", "lch", 8)
    assert capsys.readouterr().out == f"{scope['out']} {adds} {muls}\n"
    assert twists == 0
    assert scope["out"] == oracle_convert(scope["f"], "newton", "lch", scope["beta"], 0, 8,
                                          scope["coeffs"])


def test_construct_cantor(capsys):
    code, out, err = run(capsys, "construct", "--field", "8:0x11b",
                         "--basis", "cantor", "--n", "8")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 8 and lines[0] == "1"
    code, out2, _ = run(capsys, "construct", "--field", "8:0x11b",
                        "--basis", "cantor", "--n", "8")
    assert out2 == out


def test_construct_sources(capsys):
    code, out, _ = run(capsys, "construct", "--field", "12",
                       "--basis", "tower:1-12", "--n", "12")
    assert code == 0 and len(out.splitlines()) == 12
    code, out, _ = run(capsys, "construct", "--field", "8",
                       "--basis", "gencantor:2", "--n", "6")
    assert code == 0 and len(out.splitlines()) == 6
    code, out, _ = run(capsys, "construct", "--field", "13",
                       "--basis", "random:9", "--n", "5")
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = run(capsys, "construct", "--field", "8",
                       "--basis", "explicit:1,2,4", "--n", "3")
    assert code == 0 and out.splitlines() == ["1", "2", "4"]


def test_construct_errors(capsys):
    code, out, err = run(capsys, "construct", "--field", "12",
                         "--basis", "cantor", "--n", "6")
    assert code == 1 and out == ""
    assert err.startswith("ERROR: ") and err.count("\n") == 1
    assert "divide" in err
    code, _, err = run(capsys, "construct", "--field", "8",
                       "--basis", "explicit:1,2", "--n", "3")
    assert code == 1 and "3" in err
    code, _, err = run(capsys, "construct", "--field", "8",
                       "--basis", "mystery", "--n", "3")
    assert code == 1 and "mystery" in err
    # An explicit entry must be an element of the field.
    for argv in (("construct",), ("trees", "--strategy", "trivial")):
        code, out, err = run(capsys, *argv, "--field", "16", "--n", "1",
                             "--basis", "explicit:10000")
        assert code == 1 and out == ""
        assert err.startswith("ERROR: ") and err.count("\n") == 1
        assert "GF(2^16)" in err


def test_explicit_tree_leaf_count_errors(capsys):
    # An explicit tree with the wrong number of leaves is a bad tree, not a
    # bad basis: one ERROR: line naming both counts.
    for argv in (("counts", "--field", "8", "--n", "3", "--tree", "explicit:(*,*)"),
                 ("trees", "--strategy", "explicit:((*,*),*)", "--field", "8", "--n", "2"),
                 ("verify", "--field", "8", "--n", "2", "--tree", "explicit:((*,*),*)")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("ERROR: explicit tree has ") and err.count("\n") == 1, argv
        assert "expected" in err


def test_trees_list_and_validate(capsys):
    code, out, _ = run(capsys, "trees")
    assert code == 0 and out.splitlines()[0] == "trivial"
    assert "graft:<t>" in out

    code, out, _ = run(capsys, "trees", "--strategy", "cantor",
                       "--field", "16", "--basis", "cantor", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["((*,*),(*,*))", "degrees: 1,2", "valid"]

    code, out, _ = run(capsys, "trees", "--strategy", "explicit:(((*,*),*),*)",
                       "--field", "16", "--basis", "cantor", "--n", "4")
    assert code == 1 and out.splitlines()[-1] == "invalid"

    code, out, _ = run(capsys, "trees", "--strategy", "max:1-2-4-12",
                       "--field", "12", "--basis", "tower:1-2-4-12", "--n", "6")
    assert code == 0 and out.splitlines()[-1] == "valid"

    code, out, _ = run(capsys, "trees", "--strategy", "graft:2",
                       "--field", "8", "--basis", "gencantor:2", "--n", "5")
    assert code == 0 and out.splitlines()[-1] == "valid"

    code, _, err = run(capsys, "trees", "--strategy", "cantor")
    assert code == 1 and err.startswith("ERROR: ")


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert "PASS n2x ell=1 lam=0" in lines
    assert lines[-1] == "verify: 192 checks, 0 failures"

    code, out, _ = run(capsys, "verify", "--field", "13", "--basis", "random:4",
                       "--tree", "trivial", "--n", "5", "--lam", "1a")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failures")
    assert any(line.endswith("lam=1a") for line in out.splitlines())


def test_verify_validation_failure(capsys):
    code, out, _ = run(capsys, "verify", "--field", "16", "--basis", "cantor",
                       "--tree", "explicit:(((*,*),*),*)", "--n", "4")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL validate tree incompatible with basis"

    code, _, err = run(capsys, "verify", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "7")
    assert code == 1 and err.startswith("ERROR: ")


def test_counts_csv_shape(capsys):
    args = ("counts", "--field", "16", "--basis", "cantor", "--tree", "cantor",
            "--n", "4", "--transform", "n2x")
    code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "ell,additions,multiplications"
    assert lines[2] == "1,0,0"
    assert lines[-1] == "16,46,32"
    assert len(lines) == 18

    code, out2, _ = run(capsys, *args)
    assert out2 == out


def test_counts_monotone_smoke(capsys):
    for transform in ("n2x", "x2n", "l2x", "x2l", "x2m", "m2x"):
        code, out, _ = run(capsys, "counts", "--field", "16", "--basis",
                           "cantor", "--tree", "cantor", "--n", "5",
                           "--transform", transform)
        assert code == 0
        adds = [int(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert all(x <= y for x, y in zip(adds, adds[1:]))


@pytest.mark.parametrize("transform", [
    "n2x", "x2n", "l2x", "x2l", "x2m", "m2x", "l2x --c 3 --b 1 --ell 3:64",
    "convert:lagrange-monomial", "convert:monomial-newton",
])
def test_counts_calc_agrees_with_execution(capsys, transform):
    base = ("counts", "--field", "12", "--basis", "tower:1-2-4-12", "--tree",
            "max:1-2-4-12", "--n", "6", "--transform", *transform.split())
    code, out, _ = run(capsys, *base)
    assert code == 0
    code, out_calc, _ = run(capsys, *base, "--calc")
    assert code == 0
    assert out.splitlines()[1:] == out_calc.splitlines()[1:]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("transform", ["n2x", "x2n", "l2x", "x2l", "x2m", "m2x"])
def test_counts_calc_text_at_leaves(capsys, transform, n):
    # At n = 1 the root is a leaf, whose replayed cost once printed its
    # multiplication flag as False/True; the CSV text must match execution.
    base = ("counts", "--field", "8", "--n", str(n), "--transform", transform)
    code, out, _ = run(capsys, *base)
    assert code == 0
    code, out_calc, _ = run(capsys, *base, "--calc")
    assert code == 0
    assert out.splitlines()[1:] == out_calc.splitlines()[1:]


def test_counts_convert_has_twist_column(capsys):
    code, out, _ = run(capsys, "counts", "--field", "13", "--basis",
                       "random:7", "--tree", "trivial", "--n", "3",
                       "--transform", "convert:monomial-lagrange",
                       "--lam", "3f")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "ell,additions,multiplications,twist_multiplications"
    twists = [int(line.split(",")[3]) for line in lines[2:]]
    assert twists == [max(2 * ell - 3, 0) for ell in range(1, 9)]

    code, out, _ = run(capsys, "counts", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "3",
                       "--transform", "convert:monomial-newton")
    assert code == 0
    assert all(line.endswith(",0") for line in out.splitlines()[2:])


def test_counts_mixed_parameters(capsys):
    code, out, _ = run(capsys, "counts", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "4", "--transform", "l2x",
                       "--c", "2", "--b", "1", "--ell", "2:8")
    assert code == 0 and len(out.splitlines()) == 9

    code, _, err = run(capsys, "counts", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "4", "--transform", "l2x",
                       "--c", "5")
    assert code == 1 and "c <= ell" in err

    code, out, _ = run(capsys, "counts", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "4", "--transform", "x2l",
                       "--c", "16", "--ell", "4")
    assert code == 0 and len(out.splitlines()) == 3


def test_counts_to_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "counts", "--field", "16", "--basis", "cantor",
                       "--tree", "trivial", "--n", "3", "--out", str(target))
    assert code == 0 and out == ""
    content = target.read_text(encoding="utf-8")
    assert content.splitlines()[1] == "ell,additions,multiplications"
    assert content.endswith("\n")


def test_bounds_pass_and_slack(capsys):
    code, out, _ = run(capsys, "bounds", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "6", "--transform", "n2x")
    assert code == 0
    assert out.splitlines()[-1].startswith("worst slack ")

    code, out, _ = run(capsys, "bounds", "--field", "13", "--basis",
                       "random:3", "--tree", "trivial", "--n", "6",
                       "--transform", "x2l", "--calc")
    assert code == 0

    code, out, _ = run(capsys, "bounds", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "8", "--transform", "x2m",
                       "--calc")
    assert code == 0


def test_bounds_mismatched_id(capsys):
    code, out, err = run(capsys, "bounds", "--field", "16", "--basis",
                         "cantor", "--tree", "cantor", "--n", "6",
                         "--transform", "l2x", "--calc",
                         "--bound-add", "newton_add")
    assert code == 1 and out == ""
    assert err.startswith("ERROR: l2x additions exceed newton_add at ell=")
    assert err.count("\n") == 1

    code, _, err = run(capsys, "bounds", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "4", "--transform", "n2x",
                       "--bound-add", "no_such_bound")
    assert code == 1 and "no_such_bound" in err


def test_bounds_rejects_convert(capsys):
    code, _, err = run(capsys, "bounds", "--field", "16", "--basis", "cantor",
                       "--tree", "cantor", "--n", "4",
                       "--transform", "convert:monomial-newton")
    assert code == 1 and "raw transforms" in err


def test_resolve_field_shares_instances():
    spec = "16:0x1002b"
    assert resolve_field(spec) is resolve_field(spec)
    assert resolve_field(spec) is resolve_field("16")


def test_runconfig_roundtrip():
    text = ("field=16:0x1002b basis=cantor tree=cantor n=4 transform=l2x "
            "ell=2:8 lam=3f c=2 b=1 calc=1 out=-")
    cfg = RunConfig.from_string(text)
    assert cfg.to_string() == text
    assert RunConfig.from_string(cfg.to_string()) == cfg
    assert cfg.c == 2 and cfg.b == 1 and cfg.calc and cfg.out is None

    defaults = RunConfig.from_string(
        "field=8:0x11b basis=cantor tree=trivial n=3 transform=n2x "
        "ell=1:8 lam=0 c=- b=- calc=0 out=-")
    assert defaults.c is None and defaults.b is None and not defaults.calc

    # Headers that would not print back the same: an unknown token, a
    # repeated key, a calc flag other than 0 or 1, a number with a leading
    # zero or sign, and keys out of order.
    for bad in (text + " bogus=1", text.replace("n=4", "n=3") + " n=5",
                text.replace("calc=1", "calc=7"), text.replace("n=4", "n=04"),
                text.replace("c=2", "c=+2"),
                "basis=cantor " + text.replace(" basis=cantor", "")):
        with pytest.raises(ValueError):
            RunConfig.from_string(bad)


def test_error_paths_single_line(capsys):
    bad_invocations = (
        ("construct", "--field", "nope", "--n", "3"),
        ("counts", "--field", "16", "--n", "3", "--lam", "zz"),
        ("counts", "--field", "16", "--n", "3", "--ell", "0:4"),
        ("counts", "--field", "16", "--n", "3", "--ell", "5:4"),
        ("counts", "--field", "16", "--n", "3", "--ell", "abc"),
        ("counts", "--field", "16", "--n", "3", "--transform", "warp"),
        ("counts", "--field", "16", "--n", "3", "--transform", "convert:newton-foo"),
        ("counts", "--field", "16", "--n", "99"),
        ("counts", "--field", "16", "--n", "3", "--tree", "mystery:9"),
        ("verify", "--field", "16", "--n", "3", "--lam", "10000"),
    )
    for argv in bad_invocations:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("ERROR: ") and err.count("\n") == 1, argv

    code, _, err = run(capsys)
    assert code == 1 and err.startswith("ERROR: ")


def test_block_size_below_one_is_one_error_line(capsys):
    for argv in (
        ("counts", "--field", "16", "--n", "4", "--basis", "gencantor:0"),
        ("counts", "--field", "16", "--n", "4", "--tree", "graft:0"),
        ("construct", "--field", "16", "--n", "4", "--basis", "gencantor:-1"),
        ("trees", "--strategy", "graft:-2", "--field", "16", "--n", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("ERROR: ") and err.count("\n") == 1, argv
        assert "block size" in err, argv


def test_deeply_nested_explicit_tree_is_one_error_line(capsys):
    code, out, err = run(capsys, "counts", "--field", "16", "--n", "4",
                         "--tree", "explicit:" + "(" * 3000)
    assert code == 1 and out == ""
    assert err.startswith("ERROR: ") and err.count("\n") == 1
    assert "nested deeper" in err


@pytest.mark.parametrize("command", ["counts", "bounds"])
def test_c_and_b_only_for_the_transforms_that_read_them(capsys, command):
    for extra, flag in ((("n2x", "--c", "99", "--b", "7"), "--c"),
                        (("convert:newton-lch", "--c", "1"), "--c"),
                        (("x2l", "--b", "1"), "--b")):
        code, out, err = run(capsys, command, "--field", "16", "--n", "3",
                             "--transform", *extra)
        assert code == 1 and out == "", extra
        assert err.startswith(f"ERROR: {flag} applies to "), extra
        assert err.count("\n") == 1, extra


@pytest.mark.parametrize("argv", [
    ("counts", "--field", "16", "--n", "3"),
    ("trees",),
    ("trees", "--strategy", "cantor", "--field", "16", "--n", "4"),
])
def test_out_to_missing_directory_is_one_error_line(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("ERROR: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("extra, flags", [
    (("--field", "99", "--n", "77", "--basis", "mystery"), "--field, --basis, --n"),
    (("--n", "4"), "--n"),
    (("--basis", "cantor"), "--basis"),
])
def test_trees_listing_rejects_flags_it_does_not_read(capsys, extra, flags):
    code, out, err = run(capsys, "trees", *extra)
    assert code == 1 and out == ""
    assert err == f"ERROR: trees without --strategy does not read {flags}\n"


def test_repeated_main_matches_fresh_runs(capsys):
    # main reuses one parser within a process: a good run, a malformed flag
    # and another command in a row must each print what a fresh process
    # prints, with the same exit code and at most one ERROR: line.
    path = (str(Path(binbasis.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv in (("counts", "--field", "16", "--n", "4", "--transform",
                  "convert:lagrange-monomial"),
                 ("counts", "--field", "16", "--n", "four"),
                 ("verify", "--field", "16", "--basis", "cantor", "--tree", "cantor", "--n", "3")):
        fresh = subprocess.run([sys.executable, "-m", "binbasis.cli", *argv], env=env,
                               capture_output=True, text=True, check=False)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert err.count("\n") == (code != 0) and err.startswith("ERROR: " if code else ""), argv
