"""Command line behavior: output schemas, exit codes, format equivalence."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import axxz
from axxz import bae, cli
from axxz.cli import main


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


class TestEd:
    def test_two_sites_sum_to_zero(self, capsys):
        code, out, _ = run(capsys, "ed", "--n", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert len(rows) == 4
        assert abs(sum(float(r[1]) for r in rows)) < 1e-10

    def test_six_sites_ground_first(self, capsys):
        code, out, _ = run(capsys, "ed", "--n", "6")
        assert code == 0
        first = out.splitlines()[0].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - (-6.4785)) < 1e-3
        assert first[2] in ("1", "-1")

    def test_formats_agree_exactly(self, capsys):
        _, csv_out, _ = run(capsys, "ed", "--n", "4")
        _, json_out, _ = run(capsys, "ed", "--n", "4", "--format", "json")
        doc = json.loads(json_out)
        csv_rows = [line.split(",") for line in csv_out.splitlines()]
        assert len(doc["levels"]) == len(csv_rows) == 16
        for rec, row in zip(doc["levels"], csv_rows):
            # repr round-trips, so both forms must parse to identical floats
            assert rec["energy"] == float(row[1])
            assert rec["parity"] == int(row[2])

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, "ed", "--n", "20")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [["ed", "--n", "6"], ["table1"]], ids=["ed", "table1"])
    def test_no_dense_hamiltonian(self, capsys, monkeypatch, argv):
        # the levels come from the representative rows of H (core.spectrum)
        from axxz import core

        def refuse(*args, **kw):
            raise AssertionError("dense H built")

        for module in (core, cli):
            monkeypatch.setattr(module, "build_hamiltonian", refuse)
            monkeypatch.setattr(module, "diagonalize_symmetric", refuse)
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""


class TestBae:
    def test_ground_energy(self, capsys, ed6):
        code, out, _ = run(capsys, "bae", "--n", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["energy"] - ed6.eigenvalues[0]) < 1e-10
        assert doc["classified"] == "ground-like"
        assert len(doc["zeros"]) == 5

    def test_type_two_csv(self, capsys, ed6):
        code, out, _ = run(capsys, "bae", "--n", "6", "--pattern", "type_II",
                           "--position", "1")
        assert code == 0
        tail = dict(line.split(",", 1) for line in out.splitlines()[-4:])
        assert min(abs(ed6.eigenvalues - float(tail["energy"]))) < 1e-8
        assert tail["classified"] == "type_II"

    def test_type_one_needs_number(self, capsys):
        code, _, err = run(capsys, "bae", "--n", "6", "--pattern", "type_I")
        assert code == 2 and "--number" in err

    @pytest.mark.parametrize("argv, pattern", [
        ([], "ground-like"), (["--pattern", "type_I", "--number", "0.5"], "type_I"),
    ], ids=["ground", "type_I"])
    def test_odd_size_accepted(self, capsys, argv, pattern):
        code, out, _ = run(capsys, "bae", "--n", "7", *argv, "--format", "json")
        assert code == 0 and json.loads(out)["classified"] == pattern

    @pytest.mark.parametrize("n, number, window", [("7", "1", "-2.5, ..., 2.5"),
                                                   ("6", "2.5", "-2, ..., 2")])
    def test_number_outside_window_rejected(self, capsys, n, number, window):
        code, out, err = run(capsys, "bae", "--n", n, "--pattern", "type_I", "--number", number)
        assert code == 2 and out == "" and window in err

    def test_zero_tol_rejected(self, capsys):
        code, _, err = run(capsys, "bae", "--n", "6", "--tol", "0")
        assert code == 2 and "tol" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--number", "3"], "--number"),
        (["--position", "3"], "--position"),
        (["--pattern", "type_I", "--number", "1", "--position", "2"], "--position"),
        (["--pattern", "type_II", "--position", "1", "--number", "2"], "--number"),
    ], ids=["ground-number", "ground-position", "type_I-position", "type_II-number"])
    def test_option_that_does_not_apply_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, "bae", "--n", "8", *argv)
        assert code == 2 and flag in err and out == ""

    def test_collision_is_solver_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(bae, "_DEDUPE_TOL", 10.0)
        code, _, err = run(capsys, "bae", "--n", "6")
        assert code == 3 and "collided" in err

    def test_unallocatable_size_rejected(self, capsys):
        # the seed's first pairwise array would take 7.28 TiB, so it fails at once
        code, out, err = run(capsys, "bae", "--n", "1000000")
        assert code == 2 and out == "" and err.startswith("error: Unable to allocate")


class TestVerify:
    def test_homogeneous_all_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert all(line.endswith(",ok") for line in lines)

    def test_seeded_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--seed", "9",
                           "--levels", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["seed"] == 9
        names = {c["name"] for c in doc["checks"]}
        assert "bilinear_identity" in names and "cubic_identity" in names

    @pytest.mark.parametrize("argv, builds", [([], 0), (["--seed", "1"], 1)],
                             ids=["homogeneous", "seeded"])
    def test_dense_transfer_builds(self, capsys, monkeypatch, argv, builds):
        # only transfer_eigenbasis, which splits t(probe) into U-parity blocks, needs the dense operator
        from axxz import core

        calls = []
        dense = core.build_transfer_matrix

        def counting(*args, **kw):
            calls.append(args[0])
            return dense(*args, **kw)

        monkeypatch.setattr(core, "build_transfer_matrix", counting)
        monkeypatch.setattr(cli, "build_transfer_matrix", counting)
        code, _, _ = run(capsys, "verify", "--n", "6", *argv)
        assert code == 0 and len(calls) == builds

    def test_nan_residual_fails_its_check(self, capsys, monkeypatch):
        from axxz import tqverify

        calls = []
        cubic = tqverify.verify_cubic

        def nan_on_second_level(*args):
            calls.append(None)
            out = cubic(*args)
            return {**out, "max_relative_residual": math.nan} if len(calls) == 2 else out

        monkeypatch.setattr(tqverify, "verify_cubic", nan_on_second_level)
        code, out, _ = run(capsys, "verify", "--n", "4")
        assert code == 2 and len(calls) == 5
        assert "check,cubic_identity,nan,1e-06,FAIL" in out.splitlines()

    def test_size_cap(self, capsys, monkeypatch):
        # only the seeded eigenbasis needs the dense t(probe); unseeded, the ED cap applies
        from axxz import core

        assert run(capsys, "verify", "--n", "10")[0] == 0
        code, _, err = run(capsys, "verify", "--n", "10", "--seed", "1")
        assert code == 2 and "--seed" in err
        calls = []
        monkeypatch.setattr(cli, "apply_transfer", lambda *args: calls.append(args))
        monkeypatch.setattr(core, "apply_transfer", lambda *args: calls.append(args))
        code, out, err = run(capsys, "verify", "--n", "13")
        assert code == 2 and out == "" and "n <= 12" in err and not calls

    @pytest.mark.parametrize("flag", ["--levels", "--samples"])
    def test_zero_count_rejected(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--n", "4", flag, "0")
        assert code == 2 and flag in err and out == ""

    def test_levels_clamped_to_dimension(self, capsys):
        assert run(capsys, "verify", "--n", "4", "--levels", str(10**12)) == \
            run(capsys, "verify", "--n", "4", "--levels", "16")

    def test_unallocatable_samples_rejected(self, capsys):
        # the cubic identity's sample array would take 29.1 TiB, so it fails at once
        code, out, err = run(capsys, "verify", "--n", "4", "--samples", str(10**12))
        assert code == 2 and out == "" and err.startswith("error: Unable to allocate")


class TestThermo:
    def test_ground_energy_value(self, capsys):
        code, out, _ = run(capsys, "thermo", "--quantity", "eg")
        assert code == 0
        assert abs(float(out) - (3 - 3 * math.sqrt(3)) / 2) < 1e-12

    def test_dispersion_values(self, capsys):
        _, out1, _ = run(capsys, "thermo", "--quantity", "de1", "--alpha", "0")
        assert abs(float(out1) - 1.5 * math.sqrt(3)) < 1e-12
        _, out2, _ = run(capsys, "thermo", "--quantity", "de2", "--alpha", "0")
        assert abs(float(out2) - 3 * math.sqrt(6)) < 1e-12

    def test_density_grid(self, capsys):
        code, out, _ = run(capsys, "thermo", "--quantity", "rho")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert len(rows) == 201
        mid = rows[100]
        assert abs(float(mid[0])) < 1e-12
        assert abs(float(mid[1]) - 3 * math.sqrt(2) / (2 * math.pi)) < 1e-12

    def test_drho2_atoms(self, capsys):
        code, out, _ = run(capsys, "thermo", "--quantity", "drho2",
                           "--alpha", "0.5", "--n", "32", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["atoms"] == [{"position": 0.5, "weight": -1 / 32}]

    @pytest.mark.parametrize("n", ["0", "-4"])
    @pytest.mark.parametrize("extra", [["rho", "--hole-pos", "1"], ["drho1"], ["drho2"]],
                             ids=["rho", "drho1", "drho2"])
    def test_size_below_two_rejected(self, capsys, n, extra):
        code, out, err = run(capsys, "thermo", "--quantity", *extra, "--n", n)
        assert code == 2 and "--n" in err and out == ""

    def test_finite_size_needs_n(self, capsys):
        code, _, _ = run(capsys, "thermo", "--quantity", "drho1")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["eg", "--alpha", "5"], "--alpha"),
        (["eg", "--n", "7"], "--n"),
        (["drho1", "--n", "16", "--hole-pos", "9"], "--hole-pos"),
        (["rho", "--hole-pos", "1"], "--hole-pos"),
    ], ids=["eg-alpha", "eg-n", "drho1-hole-pos", "rho-hole-pos-without-n"])
    def test_option_that_does_not_apply_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, "thermo", "--quantity", *argv)
        assert code == 2 and flag in err and out == ""


class TestScatter:
    def test_equal_rapidity_string(self, capsys):
        code, out, _ = run(capsys, "scatter", "--process", "I_I",
                           "--a1", "0", "--a2", "0")
        assert code == 0 and out == "1+0i"

    @pytest.mark.parametrize("process", ["I_I", "II_II", "I_II"])
    @pytest.mark.parametrize("a1, a2", [("0.2", "-0.7"), ("0.9", "-0.4"), ("3", "3"),
                                        ("1e-9", "0"), ("-12", "15")])
    def test_csv_parts_round_trip_json(self, capsys, process, a1, a2):
        argv = ("scatter", "--process", process, "--a1", a1, "--a2", a2)
        _, text, _ = run(capsys, *argv)
        _, doc, _ = run(capsys, *argv, "--format", "json")
        assert text.endswith("i") and not text.endswith(".0i")
        v = json.loads(doc)["value"]
        assert complex(text[:-1] + "j") == complex(v["re"], v["im"])

    def test_json_value_unimodular(self, capsys):
        _, out, _ = run(capsys, "scatter", "--process", "I_II",
                        "--a1", "0.9", "--a2", "-0.4", "--format", "json")
        v = json.loads(out)["value"]
        assert abs(complex(v["re"], v["im"])) == pytest.approx(1.0, abs=1e-12)


class TestTable1:
    def test_bundled_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "summary,rows,32,failed,0"
        assert all(line.endswith(",OK") for line in lines[:-1])

    def test_bundled_fixture_json(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 32 and doc["failed"] == 0
        assert all(r["ok"] is True for r in doc["rows"])

    def test_value_corruption_flagged(self, capsys, tmp_path, table_rows):
        import csv as csvmod

        from axxz.cli import _bundled_fixture

        src = list(csvmod.reader(open(_bundled_fixture())))
        src[3][11] = "-4.8000"  # recorded energy no longer matches its roots
        bad = tmp_path / "t.csv"
        with open(bad, "w", newline="") as fh:
            csvmod.writer(fh).writerows(src)
        code, out, _ = run(capsys, "table1", "--fixture", str(bad))
        assert code == 2
        assert any("FAIL" in line for line in out.splitlines())

    def test_structural_corruption_flagged(self, capsys, tmp_path):
        bad = tmp_path / "t.csv"
        bad.write_text("level,junk\n1,abc\n")
        code, out, err = run(capsys, "table1", "--fixture", str(bad))
        assert code == 2 and out == ""
        assert err == "error: corrupted fixture: fixture row 2: expected 12 fields, got 2\n"

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_nonpositive_tol_rejected(self, capsys, tol):
        code, out, err = run(capsys, "table1", "--tol", tol)
        assert code == 2 and "--tol" in err and out == ""

    def test_missing_fixture_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "table1", "--fixture", str(tmp_path / "nope.csv"))
        assert code == 4


@pytest.mark.parametrize("argv, flag", [
    (["thermo", "--quantity", "de1", "--alpha", "nan"], "--alpha"),
    (["thermo", "--quantity", "delta", "--hole-pos", "nan"], "--hole-pos"),
    (["scatter", "--process", "I_I", "--a1", "nan"], "--a1"),
    (["scatter", "--process", "I_I", "--a2", "inf"], "--a2"),
    (["bae", "--n", "8", "--tol", "nan"], "--tol"),
    (["bae", "--n", "8", "--pattern", "type_II", "--position", "1", "--tol", "inf"], "--tol"),
    (["table1", "--tol", "nan"], "--tol"),
    (["table1", "--tol", "1e999"], "--tol"),
], ids=["alpha-nan", "hole-pos-nan", "a1-nan", "a2-inf", "bae-tol-nan", "bae-tol-inf",
        "table1-tol-nan", "table1-tol-overflow"])
def test_non_finite_float_option_rejected(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and f"argument {flag}: expected a finite number" in err and out == ""


class TestOutput:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "thermo", "--quantity", "eg")
        dest = tmp_path / "eg.txt"
        code = main(["thermo", "--quantity", "eg", "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        assert dest.read_text().rstrip("\n") == stdout_text

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ed", "--n", "2", "--out",
                         str(tmp_path / "no" / "dir" / "x.csv"))
        assert code == 4

    def test_parse_error_returns_2(self, capsys):
        assert main(["ed", "--n", "x"]) == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["bae", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_module_entry_point_exits_2_on_parse_error(self):
        src = str(Path(axxz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "axxz.cli", "bae", "--tol", "nan"],
                              capture_output=True, text=True, timeout=60, check=False, env=env)
        assert proc.returncode == 2
        assert "expected a finite number" in proc.stderr

    def test_module_entry_point_runs_without_warning(self):
        src = str(Path(axxz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "axxz.cli",
             "scatter", "--process", "I_I"],
            capture_output=True, text=True, timeout=60, check=False, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1+0i"

    def test_import_loads_no_scipy(self):
        src = str(Path(axxz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for call in ("", "axxz.cli.main(['thermo', '--quantity', 'eg']); "):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys, axxz, axxz.cli; " + call +
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                capture_output=True, text=True, timeout=60, check=True, env=env,
            )
            assert proc.stdout.strip().splitlines()[-1] == "[]", call

    def test_library_paths_load_no_scipy(self):
        src = str(Path(axxz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        calls = [["ed", "--n", "4"], ["bae", "--n", "6"], ["verify", "--n", "4"],
                 ["thermo", "--quantity", "rho", "--n", "16", "--hole-pos", "2"],
                 ["scatter", "--process", "I_I"], ["table1"]]
        script = (
            "import sys\n"
            "from axxz import cli, thermo\n"
            "thermo.solve_density_equation(lambda x: thermo.a_m(x, 1), n_points=201)\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, check=True, env=env)
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"

    def test_json_round_trip_is_exact(self, capsys):
        _, out, _ = run(capsys, "bae", "--n", "6", "--format", "json")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


class TestGolden:
    """Every subcommand at small N, both formats and the error paths, against
    stdout, stderr and exit code recorded before the output path was unified."""

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
    def test_output_bytes(self, capsys, monkeypatch, case):
        monkeypatch.chdir(GOLDEN)  # fixture paths in argv and stderr are relative
        code = main(case["argv"])
        out = capsys.readouterr()
        assert code == case["exit"]
        assert out.out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
        assert out.err == case["stderr"]
