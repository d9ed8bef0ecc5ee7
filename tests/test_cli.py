"""Command line behavior: parsing, JSON schemas, exit codes, determinism."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

from tcalab import InternalError
from tcalab.cli import COMMANDS, main, parse_class_spec, InputError
from tcalab.ktheory import AClass, KClassK, pairing
from tcalab.partitions import parse_partition
from tcalab.quiver import NotAComplexError, RelationError


def run_cli(args, env=None, flags=()):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, *flags, "-m", "tcalab.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


# stdout of each argv, recorded once; a change between versions shows here
STABLE_STDOUT = (
    (["charpoly", "2,1"],
     '{"char_poly": [{"den": 3, "exponents": {"1": 1}, "num": 8}, '
     '{"den": 1, "exponents": {"1": 2}, "num": -2}, {"den": 3, '
     '"exponents": {"1": 3}, "num": 1}, {"den": 1, '
     '"exponents": {"3": 1}, "num": -1}], "command": "charpoly", '
     '"partition": [2, 1], "schema": "tcalab/1"}' "\n"),
    (["hilbert", "P[2,1]-S[1]"],
     '{"command": "hilbert", "p": [{"den": 3, "exponents": {"1": 3}, '
     '"num": 1}, {"den": 1, "exponents": {"3": 1}, "num": -1}], '
     '"q": [{"den": 1, "exponents": {"1": 1}, "num": -1}], '
     '"schema": "tcalab/1"}' "\n"),
    (["bgg", "2,2,1"],
     '{"command": "bgg", "partition": [2, 2, 1], '
     '"schema": "tcalab/1", "signs": [{"from": [1, 1, 1], "sign": 1, '
     '"to": [1, 1]}, {"from": [2, 1], "sign": -1, "to": [1, 1]}, '
     '{"from": [2, 1, 1], "sign": 1, "to": [1, 1, 1]}, {"from": [2, '
     '1, 1], "sign": 1, "to": [2, 1]}, {"from": [2, 2], "sign": -1, '
     '"to": [2, 1]}, {"from": [2, 2, 1], "sign": 1, "to": [2, 1, 1]}, '
     '{"from": [2, 2, 1], "sign": 1, "to": [2, 2]}], "terms": [[[2, '
     '2, 1]], [[2, 2], [2, 1, 1]], [[2, 1], [1, 1, 1]], [[1, 1]]]}' "\n"),
    (["localcoh", "2,1", "3"],
     '{"command": "localcoh", "d": 3, "partition": [2, 1], '
     '"rows": {"1": {"generator": [2, 2, 1], "partitions": [[2, 2, '
     '1]]}, "2": {"generator": [1, 1, 1], "partitions": [[1, 1, 1]]}, '
     '"3": {"generator": [1], "partitions": [[1]]}}, '
     '"schema": "tcalab/1"}' "\n"),
    (["poincare", "1", "2", "--trunc", "6"],
     '{"alpha": [1], "coefficients": [{"den": 1, "num": 1, "q": 0, '
     '"t": 1}, {"den": 6, "num": -1, "q": 1, "t": 3}, {"den": 24, '
     '"num": 1, "q": 2, "t": 5}, {"den": 45, "num": -1, "q": 3, '
     '"t": 6}], "command": "poincare", "e": 2, "schema": "tcalab/1", '
     '"trunc": 6}' "\n"),
    (["bgg", "3,3,1,1"],
     '{"command": "bgg", "partition": [3, 3, 1, 1], '
     '"schema": "tcalab/1", "signs": [{"from": [2, 2, 1], "sign": 1, '
     '"to": [2, 2]}, {"from": [2, 2, 1, 1], "sign": 1, "to": [2, 2, '
     '1]}, {"from": [3, 2], "sign": 1, "to": [2, 2]}, {"from": [3, 2, '
     '1], "sign": -1, "to": [2, 2, 1]}, {"from": [3, 2, 1], '
     '"sign": 1, "to": [3, 2]}, {"from": [3, 2, 1, 1], "sign": 1, '
     '"to": [2, 2, 1, 1]}, {"from": [3, 2, 1, 1], "sign": 1, '
     '"to": [3, 2, 1]}, {"from": [3, 3], "sign": 1, "to": [3, 2]}, '
     '{"from": [3, 3, 1], "sign": -1, "to": [3, 2, 1]}, {"from": [3, '
     '3, 1], "sign": 1, "to": [3, 3]}, {"from": [3, 3, 1, 1], '
     '"sign": 1, "to": [3, 2, 1, 1]}, {"from": [3, 3, 1, 1], '
     '"sign": 1, "to": [3, 3, 1]}], "terms": [[[3, 3, 1, 1]], [[3, 3, '
     '1], [3, 2, 1, 1]], [[3, 3], [3, 2, 1], [2, 2, 1, 1]], [[3, 2], '
     '[2, 2, 1]], [[2, 2]]]}' "\n"),
    (["localcoh", "3,1", "3"],
     '{"command": "localcoh", "d": 3, "partition": [3, 1], '
     '"rows": {"2": {"generator": [2, 1, 1], "partitions": [[2, 1, '
     '1], [2, 2, 1]]}, "3": {"generator": [2], "partitions": [[2]]}}, '
     '"schema": "tcalab/1"}' "\n"),
    (["modify", "2,1", "2"],
     '{"command": "modify", "n": 2, "partition": [2, 1], '
     '"result": "zero", "schema": "tcalab/1"}' "\n"),
    (["charpoly", "2,2"],
     '{"char_poly": [{"den": 3, "exponents": {"1": 1}, "num": '
     '-5}, {"den": 12, "exponents": {"1": 2}, "num": 29}, {"den": '
     '1, "exponents": {"2": 1}, "num": -2}, {"den": 6, '
     '"exponents": {"1": 3}, "num": -5}, {"den": 1, "exponents": '
     '{"3": 1}, "num": 1}, {"den": 1, "exponents": {"1": 1, "3": '
     '1}, "num": -1}, {"den": 12, "exponents": {"1": 4}, "num": '
     '1}, {"den": 1, "exponents": {"2": 2}, "num": 1}], '
     '"command": "charpoly", "partition": [2, 2], "schema": '
     '"tcalab/1"}' "\n"),
    (["hilbert", "P[2,2]-S[3]"],
     '{"command": "hilbert", "p": [{"den": 1, "exponents": {"1": '
     '1, "3": 1}, "num": -1}, {"den": 12, "exponents": {"1": 4}, '
     '"num": 1}, {"den": 1, "exponents": {"2": 2}, "num": 1}], '
     '"q": [{"den": 1, "exponents": {"1": 1, "2": 1}, "num": -1}, '
     '{"den": 6, "exponents": {"1": 3}, "num": -1}, {"den": 1, '
     '"exponents": {"3": 1}, "num": -1}], "schema": "tcalab/1"}' "\n"),
    (["ktheory", "conv", "Q[3,1,1]"],
     '{"command": "ktheory.conv", "result": {"basis": "L", "terms": '
     '[{"coeff": 1, "partition": [1, 1]}, {"coeff": 1, "partition": '
     '[2, 1]}, {"coeff": 1, "partition": [1, 1, 1]}, {"coeff": 1, '
     '"partition": [3, 1]}, {"coeff": 1, "partition": [2, 1, 1]}, '
     '{"coeff": 1, "partition": [3, 1, 1]}]}, "schema": "tcalab/1"}' "\n"),
    (["ktheory", "conv", "L[2,2,1]"],
     '{"command": "ktheory.conv", "result": {"basis": "Q", "terms": '
     '[{"coeff": -1, "partition": [1, 1]}, {"coeff": 1, "partition": '
     '[2, 1]}, {"coeff": 1, "partition": [1, 1, 1]}, {"coeff": -1, '
     '"partition": [2, 2]}, {"coeff": -1, "partition": [2, 1, 1]}, '
     '{"coeff": 1, "partition": [2, 2, 1]}]}, "schema": "tcalab/1"}' "\n"),
    (["ktheory", "pair", "Q[3,1]", "L[2,1,1]"],
     '{"command": "ktheory.pair", "schema": "tcalab/1", "value": 0}' "\n"),
    (["ktheory", "pair", "L[1]", "L[2,1]"],
     '{"command": "ktheory.pair", "schema": "tcalab/1", "value": 1}' "\n"),
    (["ktheory", "mult", "L[2,1]", "L[1]"],
     '{"command": "ktheory.mult", "result": {"basis": "L", "terms": '
     '[{"coeff": 1, "partition": [3, 1]}, {"coeff": 1, "partition": '
     '[2, 2]}, {"coeff": 1, "partition": [2, 1, 1]}]}, '
     '"schema": "tcalab/1"}' "\n"),
    # a tail, and explicit keys "0" to "10", where "10" sorts before "2"
    (["efw", "2,1", "2", "--bound", "10"],
     '{"alpha": [2, 1], "command": "efw", "e": 2, "schema": "tcalab/1", '
     '"shape": {"explicit": {"0": [[2, 1]], "1": [[4, 1]], "10": [[4, 3, '
     '2, 1, 1, 1, 1, 1, 1, 1]], "2": [[4, 3]], "3": [[4, 3, 2]], "4": [[4, '
     '3, 2, 1]], "5": [[4, 3, 2, 1, 1]], "6": [[4, 3, 2, 1, 1, 1]], "7": '
     '[[4, 3, 2, 1, 1, 1, 1]], "8": [[4, 3, 2, 1, 1, 1, 1, 1]], "9": [[4, '
     '3, 2, 1, 1, 1, 1, 1, 1]]}, "tail": {"column": 1, "shapes": [[4, 3, 2, '
     '1, 1, 1, 1, 1, 1, 1, 1]], "start": 11}}}' "\n"),
)


class TestClassSpec:
    def test_module_classes(self):
        cls = parse_class_spec("P[2,1]-S[1]")
        assert isinstance(cls, AClass)
        assert cls.projective.coeffs == {(2, 1): 1}
        assert cls.torsion.coeffs == {(1,): -1}

    def test_coefficients_and_empty(self):
        cls = parse_class_spec("2Q[1]+Q[0]")
        assert isinstance(cls, KClassK)
        assert cls.coeffs == {(1,): 2, (): 1}

    def test_rejects_mixed(self):
        with pytest.raises(InputError):
            parse_class_spec("L[1]+Q[1]")
        with pytest.raises(InputError):
            parse_class_spec("S[1]+L[1]")
        with pytest.raises(InputError):
            parse_class_spec("nonsense")


class TestCommands:
    def test_charpoly_golden(self):
        out = run_cli(["charpoly", "2,1"])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["schema"] == "tcalab/1"
        assert doc["char_poly"] == [
            {"den": 3, "exponents": {"1": 1}, "num": 8},
            {"den": 1, "exponents": {"1": 2}, "num": -2},
            {"den": 3, "exponents": {"1": 3}, "num": 1},
            {"den": 1, "exponents": {"3": 1}, "num": -1},
        ]

    def test_modify_zero(self):
        doc = json.loads(run_cli(["modify", "1", "1"]).stdout)
        assert doc["result"] == "zero"

    def test_depth_golden(self):
        doc = json.loads(run_cli(["depth", "3", "5"]).stdout)
        assert doc["depth"] == 1

    def test_localcoh(self):
        doc = json.loads(run_cli(["localcoh", "2", "2"]).stdout)
        assert doc["rows"] == {
            "2": {"generator": [1], "partitions": [[1], [1, 1]]}
        }

    def test_ktheory_roundtrip(self):
        doc = json.loads(run_cli(["ktheory", "conv", "Q[2,1]"]).stdout)
        assert doc["result"]["basis"] == "L"
        coeffs = {tuple(t["partition"]): t["coeff"] for t in doc["result"]["terms"]}
        assert coeffs == {(1,): 1, (2,): 1, (1, 1): 1, (2, 1): 1}

    def test_fourier_k_class(self):
        doc = json.loads(run_cli(["fourier", "Q[2]"]).stdout)
        assert doc["result"]["basis"] == "L"
        assert doc["result"]["terms"] == [{"coeff": 1, "partition": [1, 1]}]

    def test_quiver_verify(self):
        doc = json.loads(run_cli(["quiver", "verify-bgg", "2,1"]).stdout)
        assert doc["d2_zero"] is True
        assert doc["cohomology"][0] == [{"multiplicity": 1, "partition": [2, 1]}]

    def test_exit_codes(self):
        assert run_cli(["depth", "2", "1"]).returncode == 2
        assert run_cli(["depth", "not-a-partition", "1"]).returncode == 2
        assert run_cli([]).returncode == 2
        assert run_cli(["selftest", "--size", "3"]).returncode == 0

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_selftest_at_default_size(self, flags):
        # every check runs at the full size, and none relies on `assert`
        proc = run_cli(["selftest"], flags=flags)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["size"] == 5

    def test_operand_count_is_checked_first(self, capsys):
        operands = {
            ("ktheory", "conv"): ["L[1]"],
            ("ktheory", "mult"): ["L[1]", "L[1]"],
            ("ktheory", "pair"): ["L[1]", "Q[1]"],
            ("quiver", "hom"): ["2", "1"],
            ("quiver", "socle"): ["Q[1]"],
            ("quiver", "verify-bgg"): ["1"],
        }
        for (command, op), good in operands.items():
            for bad in (good[:-1], good + good[-1:]):
                assert main([command, op, *bad]) == 2, (command, op, bad)
                out, err = capsys.readouterr()
                assert out == ""
                assert "operand" in json.loads(err)["error"]
        assert run_cli(["quiver", "hom", "2"]).returncode == 2

    def test_trunc_env_var(self):
        doc = json.loads(
            run_cli(["poincare", "0", "2"], env={"TCALAB_TRUNC": "4"}).stdout
        )
        assert doc["trunc"] == 4
        assert max(c["t"] for c in doc["coefficients"]) <= 4

    def test_byte_stability(self):
        for args, expected in STABLE_STDOUT:
            assert run_cli(args).stdout == expected, args

    def test_table_format(self):
        out = run_cli(["--format", "table", "depth", "3", "3"])
        assert out.returncode == 0
        assert "depth: 2" in out.stdout

    def test_efw_shape_json(self):
        doc = json.loads(run_cli(["efw", "1", "1", "--bound", "3"]).stdout)
        assert doc["shape"]["explicit"]["0"] == [[1]]
        assert doc["shape"]["explicit"]["2"] == [[2, 2]]
        assert doc["shape"]["tail"]["column"] == 1

    def test_fourier_module_class(self):
        doc = json.loads(run_cli(["fourier", "S[1]"]).stdout)
        assert doc["result"] == {
            "torsion": [],
            "projective": [{"coeff": -1, "partition": [1]}],
        }

    def test_ktheory_mult(self):
        doc = json.loads(run_cli(["ktheory", "mult", "L[1]", "L[1]"]).stdout)
        coeffs = {tuple(t["partition"]): t["coeff"] for t in doc["result"]["terms"]}
        assert coeffs == {(2,): 1, (1, 1): 1}

    def test_quiver_hom(self):
        doc = json.loads(run_cli(["quiver", "hom", "2", "1"]).stdout)
        assert doc["dimension"] == 1
        doc = json.loads(run_cli(["quiver", "hom", "1", "2"]).stdout)
        assert doc["dimension"] == 0


_MIXED = "class spec must use only S/P symbols or a single K-theory basis"


def _refused(capsys, argv) -> str:
    """Run argv in process; it must exit 2 with empty stdout and exactly one
    JSON line on stderr.  Returns the error message."""
    assert main(argv) == 2, argv
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    return json.loads(err)["error"]


class TestInputContract:
    @pytest.mark.parametrize("size", ["0", "-1", "1_0"])
    def test_selftest_refuses_sizes_below_one(self, capsys, monkeypatch, size):
        import tcalab.selftest as selftest_mod

        def never(cap):
            raise AssertionError("a check ran")

        monkeypatch.setattr(selftest_mod, "CHECKS", [("never", never)])
        assert "size" in _refused(capsys, ["selftest", "--size", size])

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["efw", "1", "1", "--bound", "-2"], None),
            (["poincare", "1", "1", "--trunc", "-3"], None),
            (["modify", "2,1", "-5"], None),
            (["poincare", "1", "1"], "-4"),
        ],
    )
    def test_negative_counts_are_refused(self, capsys, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("TCALAB_TRUNC", env)
        assert "non-negative" in _refused(capsys, argv)

    @pytest.mark.parametrize("argv, message", [
        (["quiver", "socle", "2Q[1]"], "socle expects a single basis symbol"),
        (["quiver", "socle", "Q[1]-Q[1]"], "socle expects a single basis symbol"),
        (["quiver", "socle", "L[1]+L[2]"], "socle expects a single basis symbol"),
        (["quiver", "socle", "S[1]"], "socle expects an L or Q class spec, got 'S[1]'"),
        (["quiver", "socle", "Q[1]+L[1]"], _MIXED),
        (["quiver", "socle", "S[1]-S[1]+Q[1]"], _MIXED),
        (["quiver", "socle", "junk Q[1]"], "cannot parse class spec near 'junk'"),
        (["quiver", "socle", "Q[1,2]"], "parts must be weakly decreasing: (1, 2)"),
        (["ktheory", "conv", "S[1]"], "conv expects an L or Q class spec, got 'S[1]'"),
        (["ktheory", "mult", "Q[1]", "P[2]"], "mult expects an L or Q class spec, got 'P[2]'"),
        (["ktheory", "pair", "L[1]+Q[1]", "Q[1]"], _MIXED),
    ])
    def test_k_class_specs_refuse_all_but_one_basis(self, capsys, argv, message):
        # socle reads its spec without the K-theory layer, and refuses as
        # the K-class operations do
        assert _refused(capsys, argv) == message

    def test_socle_reads_a_sum_that_comes_to_one_symbol(self, capsys):
        for spec in ("Q[2,1]", "+1Q[2,1,0]", "3Q[2,1]-2Q[2,1]", "Q[2,1]+Q[1]-Q[1]"):
            assert main(["quiver", "socle", spec]) == 0, spec
            doc = json.loads(capsys.readouterr().out)
            assert doc["socle"] == [{"partition": [2, 1], "multiplicity": 1}], spec

    def test_quiver_has_no_size_option(self, capsys):
        _refused(capsys, ["quiver", "hom", "2", "1", "--size", "3"])

    @pytest.mark.parametrize("argv", [["fourier", "S[99999999999999999999]"]])
    def test_overflow_is_one_json_line(self, capsys, argv):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(argv) in (2, 3)
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        json.loads(err, parse_constant=reject)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ktheory", "pair", "L[99999999999999999999]", "L[1]"],
            ["ktheory", "pair", "L[1]", "L[99999999999999999999]"],
        ],
    )
    def test_pair_with_a_huge_part_is_strict_json(self, capsys, argv):
        # the CLI refuses the part before any work, in one strict JSON line;
        # the pairing itself answers 0, since neither simple is a vertical
        # strip over the other, which the row test sees without expanding
        # the 10^20-box row
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "99999999999999999999" in json.loads(err, parse_constant=reject)["error"]
        x, y = (KClassK("L", {parse_partition(spec[2:-1]): 1}) for spec in argv[2:])
        assert pairing(x, y) == 0

    @pytest.mark.parametrize("argv", [
        ["ktheory", "conv", "Q[99999999999999999999]"],
        ["ktheory", "pair", "Q[99999999999999999999]", "L[1]"],
        ["fourier", "S[99999999999999999999]"],
        ["charpoly", "99999999999999999999"],
        ["bgg", str(sys.maxsize)],
        ["efw", f"{sys.maxsize},2", "1"],
        ["ktheory", "conv", f"Q[{sys.maxsize}]"],
        ["hilbert", f"P[1]-S[{sys.maxsize + 1},1]"],
    ])
    def test_parts_an_index_cannot_count_are_refused(self, capsys, argv):
        # a part of sys.maxsize or more, in a partition operand or in a
        # class-spec term, is input no range over its row could index: these
        # argv ended in an OverflowError (exit 3) or ran away
        assert f"parts must be below {sys.maxsize}" in _refused(capsys, argv)

    def test_infinite_depth_is_strict_json(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["depth", "0", "0"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["depth"] is None and doc["infinite"] is True
        assert main(["depth", "3", "5"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["depth"] == 1 and "infinite" not in doc


# SHA-256 of each script's stdout with default arguments; a digest changes
# only with an entry in CHANGES.md that says why the output changed
SCRIPT_STDOUT_SHA256 = {
    "depth_survey.py": "009a8688a276de026268a65af11af05f51036668f4004fdbdb2d72a866330645",
    "worked_examples.py": "be92d05df7aa6b3f2a574fc83aaee9e7e26a8f4d584467eb67db292c3d32168e",
}


@pytest.mark.parametrize("script", ["depth_survey.py", "worked_examples.py"])
def test_scripts_run(script):
    import hashlib
    import os

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == SCRIPT_STDOUT_SHA256[script], proc.stdout


def test_stdout_diff_names_the_first_difference(tmp_path):
    import importlib.util
    import shutil

    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "stdout_diff", root / "scripts" / "stdout_diff.py")
    stdout_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stdout_diff)

    for side in ("a", "b"):
        shutil.copytree(root / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    argvs = [["charpoly", "2,1"], ["ktheory", "conv", "L[2,1]"], ["bgg", "2,1"]]
    assert stdout_diff.compare(tmp_path / "a", tmp_path / "b", argvs) == (3, None)

    ours = stdout_diff.run_family(tmp_path / "a", argvs)
    assert [code for code, _ in ours] == [0, 0, 0]
    theirs = [ours[0], (0, ours[1][1].replace('"coeff": 1', '"coeff": 2')), (3, "")]
    assert stdout_diff.first_difference(argvs, ours, theirs) == 1
    diff = stdout_diff.report(argvs, ours, theirs)
    assert diff.startswith("first difference: ktheory conv L[2,1]\n"), diff


class TestMainEntry:
    def test_main_returns_zero(self, capsys):
        assert main(["modify", "2", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "schema": "tcalab/1",
            "command": "modify",
            "n": 2,
            "partition": [2],
            "result": "nonzero",
            "sign": -1,
            "target": [1, 1],
        }

    def test_selftest_failure_exits_three(self, capsys, monkeypatch):
        import tcalab.selftest as selftest_mod

        monkeypatch.setattr(
            selftest_mod,
            "CHECKS",
            [("always broken", lambda cap: "synthetic failure")],
        )
        assert main(["selftest", "--size", "2"]) == 3
        err = capsys.readouterr().err
        assert "synthetic failure" in err

    def test_parser_covers_all_subcommands(self):
        assert set(COMMANDS) == {
            "charpoly",
            "hilbert",
            "modify",
            "localcoh",
            "depth",
            "bgg",
            "ktheory",
            "fourier",
            "efw",
            "poincare",
            "quiver",
            "selftest",
        }
        assert set(COMMANDS["ktheory"][2]) == {"conv", "mult", "pair"}
        assert set(COMMANDS["quiver"][2]) == {"hom", "socle", "verify-bgg"}

    @pytest.mark.parametrize("error, code, key", [
        (InternalError("broken"), 3, "invariant_violation"),
        (RelationError("broken"), 3, "invariant_violation"),
        (NotAComplexError("broken"), 3, "invariant_violation"),
        (ValueError("broken"), 2, "error"),
        (AssertionError("broken"), 3, "internal_error"),
    ])
    def test_failures_take_their_routes(self, capsys, monkeypatch, error, code, key):
        """Only an `InternalError` is an invariant violation; a `ValueError`
        is refused input, and any other exception an internal error."""
        import tcalab.quiver as quiver_mod

        def fail(lam):
            raise error

        monkeypatch.setattr(quiver_mod, "realize_bgg", fail)
        assert main(["quiver", "verify-bgg", "2,1"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert key in json.loads(err) and "broken" in err

    def test_memory_error_is_refused_input(self, capsys, monkeypatch):
        """A request too large for memory fails no invariant: exit 2 with
        one JSON error line, as `fourier 'S[4611686018427387903]'` does
        under a small address-space limit."""
        import tcalab.cli as cli

        def exhaust(spec):
            raise MemoryError

        help_, operands, _ = COMMANDS["fourier"]
        monkeypatch.setitem(cli.COMMANDS, "fourier", (help_, operands, exhaust))
        assert "memory" in _refused(capsys, ["fourier", "S[1]"])


def test_no_assert_statements_in_package():
    """Internal checks raise explicitly, so `python -O` cannot strip them."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcalab"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"assert statement in {path.name} at lines {lines}"


def test_package_imports_only_the_standard_library():
    """The package is dependency-free: every absolute import is tcalab's own
    or the standard library's."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcalab"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        tops = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.split(".")[0])
        foreign = sorted(tops - {"tcalab"} - sys.stdlib_module_names)
        assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("module, loaded", [
    ("tcalab.quiver", ["tcalab", "tcalab.linalg", "tcalab.partitions", "tcalab.quiver"]),
    ("tcalab.partitions", ["tcalab", "tcalab.partitions"]),
])
def test_quiver_import_leaves_out_the_algebra(module, loaded):
    """Quiver verification stands on `partitions` and `linalg` alone: its
    import loads none of `homalg`, `hilbert`, `ktheory`, `polynomials` or
    `symchar`, each of which a fresh interpreter would compile for nothing,
    and `partitions` loads no other `tcalab` module."""
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'tcalab'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == repr(loaded)


def test_cli_import_leaves_out_inspect():
    """Importing the CLI pulls in neither `inspect` nor `dataclasses` (which
    imports `inspect`, `ast`, `dis` and `copy`); they cost start-up time and
    resident memory in every one-shot request."""
    code = (
        "import sys; before = set(sys.modules); import tcalab.cli; "
        "print(sorted({'inspect', 'dataclasses'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_K = ["ktheory", "partitions", "symchar"]
_ALGEBRA = ["hilbert", "ktheory", "partitions", "polynomials", "symchar"]
_HOMALG = sorted(_ALGEBRA + ["homalg"])
_QUIVER = ["linalg", "partitions", "quiver"]

# one request per row of `cli.COMMANDS`, with the layers it loads
REQUEST_LAYERS = [
    (["charpoly", "2,1"], _ALGEBRA),
    (["hilbert", "P[2,1]-S[1]"], _ALGEBRA),
    (["modify", "2,1", "2"], _ALGEBRA),
    (["localcoh", "2,1", "3"], _HOMALG),
    (["depth", "3", "5"], _HOMALG),
    (["bgg", "2,1"], ["partitions"]),
    (["ktheory", "conv", "Q[2,1]"], _K),
    (["ktheory", "mult", "L[1]", "L[1]"], _K),
    (["ktheory", "pair", "L[1]", "Q[1]"], _K),
    (["fourier", "Q[2]"], _K),
    (["efw", "1", "2"], _HOMALG),
    (["poincare", "1", "2", "--trunc", "4"], _HOMALG),
    (["quiver", "hom", "2", "1"], _QUIVER),
    (["quiver", "socle", "Q[2]"], _QUIVER),
    (["quiver", "verify-bgg", "2,1"], _QUIVER),
    (["selftest", "--size", "1"], sorted(set(_HOMALG + _QUIVER) | {"selftest"})),
]


def test_one_request_per_row():
    rows = set()
    for name, (_, _, run) in COMMANDS.items():
        rows |= {(name, op) for op in run} if isinstance(run, dict) else {(name,)}
    covered = {tuple(argv[:2]) if isinstance(COMMANDS[argv[0]][2], dict) else (argv[0],)
               for argv, _ in REQUEST_LAYERS}
    assert covered == rows


@pytest.mark.parametrize("argv, layers", REQUEST_LAYERS,
                         ids=[" ".join(argv) for argv, _ in REQUEST_LAYERS])
def test_each_request_loads_only_its_layers(argv, layers):
    """A fresh interpreter that answers one request through `main` holds
    `tcalab`, `tcalab.cli` and the layers that answer it, and no other
    `tcalab` module: `bgg` needs `partitions` alone, `charpoly` and `modify`
    none of `quiver`, `linalg` or `homalg`, and `quiver hom` and `quiver
    verify-bgg` none of the algebra."""
    code = (
        "import contextlib, io, sys; from tcalab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'tcalab'))"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = ["tcalab", "tcalab.cli"] + [f"tcalab.{m}" for m in layers]
    assert out.stdout.strip() == f"0 {sorted(loaded)!r}"
