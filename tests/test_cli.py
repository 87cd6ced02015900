"""Command line interface: exit codes, document formats, round trips."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from cheaptalk.cli import entry
from cheaptalk.sources import SourceModel


def run(capsys, *argv):
    """Drive the CLI in-process; returns (exit code, stdout, stderr)."""
    try:
        code = entry(list(argv))
    except SystemExit as exc:  # argparse-style usage failures
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_doc(capsys, *extra):
    code, out, err = run(capsys, "solve", "--source", "exp", "--rate", "1",
                         "--bias", "0.5", "--bins", "3", *extra)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_exponential_document_shape(self, capsys):
        doc = solve_doc(capsys)
        assert doc["solver"] == "exp-n-bins"
        assert doc["source"] == {"kind": "exponential", "rate": 1.0}
        assert doc["bias"] == 0.5
        eq = doc["equilibrium"]
        assert eq["edges"][0] == 0.0 and eq["edges"][-1] == "inf"
        assert len(eq["centroids"]) == 3
        assert eq["certificate"]["verdict"] is True
        assert doc["costs"]["encoder"] > doc["costs"]["decoder"]
        assert "runtime_ms" in doc["meta"]

    def test_floats_round_trip_bit_exactly(self, capsys):
        from cheaptalk.exponential import solve_n_bins, solve_two_bin
        code, out, _ = run(capsys, "solve", "--source", "exp", "--rate", "1",
                           "--bias", "0", "--bins", "2")
        assert code == 0
        edge = float(json.loads(out)["equilibrium"]["edges"][1])
        # the document carries the edge of the solver the CLI ran
        assert edge == solve_n_bins(1.0, 0.0, 2).interior_edges[0]
        # the two-bin closed form is the first step of the same walk
        assert edge == solve_two_bin(1.0, 0.0).interior_edges[0]

    def test_negative_values_in_exponent_form(self, capsys):
        code, out, err = run(capsys, "solve", "--source", "exp", "--rate", "1",
                             "--bias", "-1e-3", "--bins", "2")
        assert code == 0, err
        assert json.loads(out)["bias"] == -1e-3
        code, out, err = run(capsys, "solve", "--source", "gauss", "--mean",
                             "-2.5E+1", "--bias", "-.5e-1", "--bins", "2")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["source"]["mean"] == -25.0 and doc["bias"] == -0.05
        code, out, err = run(capsys, "sweep", "--source", "exp", "--rate", "1",
                             "--vary", "bias", "--from", "-1e-1", "--to",
                             "-1e-2", "--steps", "2", "--bins", "2",
                             "--format", "json")
        assert code == 0, err
        assert [r["bias"] for r in json.loads(out)["rows"]] == [-0.1, -0.01]

    def test_nonexistence_exits_two(self, capsys):
        code, out, err = run(capsys, "solve", "--source", "exp", "--rate", "1",
                             "--bias", "-0.6", "--bins", "2")
        assert code == 2
        assert out == ""
        assert "no informative equilibrium" in err

    def test_collapse_exits_two(self, capsys):
        code, _, err = run(capsys, "solve", "--source", "exp", "--rate", "1",
                           "--bias", "-0.25", "--bins", "3")
        assert code == 2
        assert "collapse" in err

    def test_gauss_two_bin_uses_closed_form(self, capsys):
        code, out, _ = run(capsys, "solve", "--source", "gauss", "--bias",
                           "0.5", "--bins", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver"] == "gauss-two-bin"
        assert doc["equilibrium"]["edges"][0] == "-inf"
        assert float(doc["equilibrium"]["edges"][1]) == pytest.approx(
            1.2780119500746878, abs=1e-11)

    def test_gauss_zero_bias_notes_reference_point(self, capsys):
        code, out, _ = run(capsys, "solve", "--source", "gauss", "--bias",
                           "0", "--bins", "3")
        assert code == 0
        assert "classical" in json.loads(out)["meta"]["note"]

    def test_exp_ladder_excludes_closing_edge(self, capsys):
        code, out, _ = run(capsys, "solve", "--source", "exp", "--rate", "1",
                           "--bias", "0.5", "--ladder", "--edges", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver"] == "exp-equal-ladder"
        assert doc["equilibrium"]["certificate"]["excluded_edges"] == [30]
        assert doc["equilibrium"]["certificate"]["verdict"] is True

    def test_gauss_ladder_converges(self, capsys):
        code, out, _ = run(capsys, "solve", "--source", "gauss", "--bias",
                           "0.3", "--ladder", "--edges", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver"] == "gauss-ladder"
        assert doc["equilibrium"]["certificate"]["excluded_edges"] == \
            [26, 27, 28, 29, 30]

    def test_gauss_ladder_max_iter_exits_two(self, capsys):
        code, out, err = run(capsys, "solve", "--source", "gauss", "--bias",
                             "0.3", "--ladder", "--max-iter", "2")
        assert code == 2
        assert "certificate failed" in err
        assert json.loads(out)["meta"]["note"].endswith("did not converge")

    def test_gauss_ladder_csv(self, capsys):
        code, out, _ = run(capsys, "solve", "--source", "gauss", "--bias",
                           "-0.3", "--ladder", "--edges", "30", "--format",
                           "csv")
        assert code == 0
        header, line = out.strip().split("\n")
        row = dict(zip(header.split(","), line.split(",")))
        assert header.split(",") == [
            "kind", "rate", "mean", "std", "bias", "solver", "edges",
            "centroids", "lengths", "residuals", "max_abs_residual",
            "tolerance", "verdict", "excluded_edges", "decoder_cost",
            "encoder_cost"]
        assert row["solver"] == "gauss-ladder"
        assert row["rate"] == ""
        assert row["excluded_edges"] == "1;2;3;4;5"
        assert row["verdict"] == "true"
        assert len(row["edges"].split(";")) == 32
        assert float(row["encoder_cost"]) == pytest.approx(
            float(row["decoder_cost"]) + 0.09, rel=1e-15)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--source", "exp", "--rate", "1",
                           "--bias", "0.5", "--bins", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("kind,rate,mean,std,bias,solver,edges")
        assert row.startswith("exponential,1,")
        assert ";" in row  # list-valued cells

    def test_tol_below_rounding_exits_two(self, capsys):
        # the Newton loop stops at the rounding floor of F, a few steps
        # in, instead of running to --max-iter
        code, out, err = run(capsys, "solve", "--source", "gauss", "--bias",
                             "0", "--bins", "16", "--tol", "1e-15",
                             "--max-iter", "1000")
        assert code == 2 and out == ""
        assert err.startswith("iteration failed: iteration stopped before ")

    def test_ladder_stall_note_names_the_smallest_step(self, capsys):
        # a stall below the rounding floor: the figure in the note is the
        # smallest full Newton step, not the last edge movement
        code, out, err = run(capsys, "solve", "--source", "gauss", "--bias",
                             "0.3", "--ladder", "--tol", "1e-15")
        assert code == 2
        assert err == "ladder iteration stopped before tol\n"
        note = json.loads(out)["meta"]["note"]
        assert note.startswith("truncated ladder, ")
        assert ", smallest full Newton step " in note
        assert note.endswith("; did not converge")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "solve", "--source", "exp", "--rate", "1",
                           "--bias", "0.5", "--bins", "2", "--out",
                           str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["solver"] == "exp-n-bins"

    def test_usage_errors_exit_one(self, capsys):
        for argv in (
            ("solve", "--source", "exp", "--bias", "0.5", "--bins", "2"),
            ("solve", "--source", "exp", "--rate", "-1", "--bias", "0.5",
             "--bins", "2"),
            ("solve", "--source", "exp", "--rate", "1", "--bias", "0.5"),
            ("solve", "--source", "gauss", "--std", "0", "--bias", "0.5",
             "--bins", "2"),
            ("dynamics", "--source", "exp", "--rate", "1", "--bias", "0.5",
             "--bins", "3", "--init", "1,2", "--max-iter", "0"),
            ("dynamics", "--source", "exp", "--rate", "1", "--bias", "0.5",
             "--bins", "3", "--init", "1,2", "--method", "fixed-point",
             "--damping", "0"),
            ("dynamics", "--source", "gauss", "--bias", "0.5", "--bins", "3",
             "--seed", "1", "--tol", "-1"),
            ("dynamics", "--source", "gauss", "--bias", "nan", "--bins", "3",
             "--seed", "1"),
            ("dynamics", "--source", "gauss", "--bias", "0.5", "--bins", "3",
             "--seed", "-1"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith(f"usage: cheaptalk {argv[0]} "), argv


class TestSweep:
    def test_bias_sweep_reports_status_per_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--source", "exp", "--rate", "1",
                           "--vary", "bias", "--from", "-0.6", "--to", "0.2",
                           "--steps", "5", "--bins", "2")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["index", "bias", "bins", "status", "max_bins"]
        statuses = [line.split(",")[3] for line in lines[1:]]
        assert statuses[0] == "no-informative-equilibrium"
        assert statuses[-1] == "ok"

    def test_bins_sweep_decoder_cost_decreases(self, capsys):
        code, out, _ = run(capsys, "sweep", "--source", "exp", "--rate", "1",
                           "--vary", "bins", "--from", "1", "--to", "6",
                           "--bias", "0.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        costs = [float(r["decoder_cost"]) for r in rows]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["max_bins"] == "inf" for r in rows)

    def test_gauss_bias_sweep_formats_agree(self, capsys):
        argv = ("sweep", "--source", "gauss", "--vary", "bias", "--from",
                "-0.2", "--to", "0.2", "--steps", "3", "--bins", "3")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert list(rows[0]) == [
            "index", "bias", "bins", "status", "edges", "centroids",
            "lengths", "residuals", "max_abs_residual", "verdict",
            "decoder_cost", "encoder_cost"]
        assert all(r["verdict"] is True for r in rows)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split(",") == list(rows[0])
        for line, r in zip(lines[1:], rows):
            cells = line.split(",")
            assert [float(v) for v in cells[4].split(";")[1:-1]] == \
                r["edges"][1:-1]
            assert float(cells[-1]) == r["encoder_cost"]

    def test_gauss_failed_rows_leave_equilibrium_columns_empty(self, capsys):
        argv = ("sweep", "--source", "gauss", "--vary", "bins", "--from",
                "2", "--to", "6", "--bias", "0.1", "--max-iter", "2")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        # the two-bin closed form needs no iteration; the others stop at 2
        assert [r["status"] for r in rows] == \
            ["ok"] + ["non-convergence"] * 4
        assert all(r["edges"] is None and r["decoder_cost"] is None
                   for r in rows[1:])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "4,0.10000000000000001,6,non-convergence" + \
            "," * 8

    def test_unbounded_bin_count_row_is_invalid(self, capsys):
        # -1/(2*bias*rate) overflows, so the bin-count bound is undefined
        code, out, err = run(capsys, "sweep", "--source", "exp", "--rate", "1",
                             "--vary", "bins", "--from", "1", "--to", "2",
                             "--bias", "-1e-320", "--format", "json")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["invalid"] * 2
        assert all(r["max_bins"] is None for r in rows)

    def test_empty_grid_exits_one(self, capsys):
        code, _, _ = run(capsys, "sweep", "--source", "exp", "--rate", "1",
                         "--vary", "bins", "--from", "5", "--to", "2",
                         "--bias", "0.5")
        assert code == 1

    def test_steps_consistency_check(self, capsys):
        code, _, _ = run(capsys, "sweep", "--source", "exp", "--rate", "1",
                         "--vary", "bins", "--from", "2", "--to", "4",
                         "--steps", "7", "--bias", "0.5")
        assert code == 1


class TestVerify:
    def write_doc(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, _, err = run(capsys, "solve", "--source", "exp", "--rate", "1",
                           "--bias", "0.5", "--bins", "3", "--out",
                           str(target))
        assert code == 0, err
        return target

    def test_round_trip_verifies(self, capsys, tmp_path):
        target = self.write_doc(capsys, tmp_path)
        code, out, err = run(capsys, "verify", str(target), "--seed", "42",
                             "--mc-samples", "200000")
        assert code == 0, err
        report = json.loads(out)
        assert report["verified"] is True
        assert report["failures"] == []
        assert report["monte_carlo"]["samples"] == 200000

    def test_tampered_edge_exits_three(self, capsys, tmp_path):
        target = self.write_doc(capsys, tmp_path)
        doc = json.loads(target.read_text())
        doc["equilibrium"]["edges"][1] = float(
            doc["equilibrium"]["edges"][1]) + 0.05
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(target), "--seed", "42",
                             "--mc-samples", "100000")
        assert code == 3
        assert json.loads(out)["verified"] is False
        assert "verification failure" in err

    def test_tampered_cost_exits_three(self, capsys, tmp_path):
        target = self.write_doc(capsys, tmp_path)
        doc = json.loads(target.read_text())
        doc["costs"]["decoder"] = float(doc["costs"]["decoder"]) * 1.001
        target.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(target), "--seed", "42",
                           "--mc-samples", "100000")
        assert code == 3
        assert "does not match" in err

    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path):
        target = self.write_doc(capsys, tmp_path)
        code, out, err = run(capsys, "verify", str(target), "--seed", "-1")
        assert code == 1 and out == ""
        assert err.startswith("usage: cheaptalk verify ") and "--seed" in err

    def test_unparseable_document_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", str(bad), "--seed", "1")
        assert code == 1
        assert "cannot parse" in err
        missing = tmp_path / "missing.json"
        code, _, _ = run(capsys, "verify", str(missing), "--seed", "1")
        assert code == 1
        # documents that parse but whose certificate cannot be re-evaluated
        for key, value in (("tolerance", 0), ("excluded_edges", [99])):
            doc = json.loads(self.write_doc(capsys, tmp_path).read_text())
            doc["equilibrium"]["certificate"][key] = value
            bad.write_text(json.dumps(doc))
            code, _, err = run(capsys, "verify", str(bad), "--seed", "1")
            assert code == 1, key
            assert "cannot parse result document" in err, key

    def rejects_certificate_field(self, capsys, tmp_path, key, value):
        doc = json.loads(self.write_doc(capsys, tmp_path).read_text())
        doc["equilibrium"]["certificate"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad), "--seed", "1")
        assert code == 1 and out == ""
        assert "cannot parse result document" in err

    def test_string_verdict_is_unparseable(self, capsys, tmp_path):
        # bool("false") is True: only a JSON boolean is a verdict
        self.rejects_certificate_field(capsys, tmp_path, "verdict", "false")

    def test_string_excluded_edges_are_unparseable(self, capsys, tmp_path):
        # a string would be iterated character by character into edges
        self.rejects_certificate_field(capsys, tmp_path, "excluded_edges", "12")

    def test_non_integer_excluded_edges_are_unparseable(self, capsys, tmp_path):
        for value in ([1.9], [True]):
            self.rejects_certificate_field(capsys, tmp_path, "excluded_edges",
                                           value)


class TestDynamics:
    def test_explicit_init_converges(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--source", "exp", "--rate",
                           "1", "--bias", "0.5", "--bins", "4", "--init",
                           "1,2,3", "--method", "lloyd")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"]["status"] == "converged"
        assert doc["final"]["certificate"]["verdict"] is True
        assert doc["init_edges"] == [0.0, 1.0, 2.0, 3.0, "inf"]

    def test_collapse_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--source", "exp", "--rate",
                           "1", "--bias", "-0.4", "--bins", "3", "--init",
                           "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"]["status"] == "collapsed"
        assert doc["outcome"]["bin_index"] is not None
        assert "final" not in doc

    def test_crossed_initial_centroids_exit_zero(self, capsys, monkeypatch):
        # centroids that do not increase at step 0 (reversed here: the
        # kernels keep real ones inside their bins) are a collapse; the
        # dynamics read the centroids from the unchecked _bin_moments
        bin_moments = SourceModel._bin_moments

        def reversed_means(self, edges):
            probs, means = bin_moments(self, edges)
            return probs, means[..., ::-1]

        monkeypatch.setattr(SourceModel, "_bin_moments", reversed_means)
        code, out, err = run(
            capsys, "dynamics", "--source", "gauss", "--bias", "0.1",
            "--bins", "5",
            "--init=-3.0,-2.999999999995,-2.99999999999,-2.999999999985")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["outcome"] == {"status": "collapsed", "iteration": 0,
                                  "bin_index": None}
        assert doc["recorded_steps"] == [0]
        assert "final" not in doc

    def test_seeded_runs_reproduce(self, capsys):
        argv = ("dynamics", "--source", "gauss", "--bias", "0.2", "--bins",
                "3", "--seed", "9", "--method", "fixed-point")
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        doc_a.pop("meta"), doc_b.pop("meta")  # wall-clock only
        assert doc_a == doc_b

    def test_init_and_seed_are_exclusive(self, capsys):
        base = ("dynamics", "--source", "exp", "--rate", "1", "--bias",
                "0.5", "--bins", "3")
        code, _, _ = run(capsys, *base, "--init", "1,2", "--seed", "4")
        assert code == 1
        code, _, _ = run(capsys, *base)
        assert code == 1

    def test_init_length_checked(self, capsys):
        code, _, _ = run(capsys, "dynamics", "--source", "exp", "--rate", "1",
                         "--bias", "0.5", "--bins", "4", "--init", "1,2")
        assert code == 1

    def test_csv_trace(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--source", "exp", "--rate",
                           "1", "--bias", "0.5", "--bins", "2", "--init",
                           "1.5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,residual,edges,status"
        assert lines[1].startswith("0,")
        assert lines[-1].endswith("converged")


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cheaptalk.cli", "solve", "--source",
             "exp", "--rate", "1", "--bias", "0", "--bins", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert float(doc["equilibrium"]["edges"][1]) == pytest.approx(
            1.5936242600400401, rel=1e-15)

    def test_version_flag(self):
        import cheaptalk
        proc = subprocess.run([sys.executable, "-m", "cheaptalk", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert cheaptalk.__version__ in proc.stdout

    def test_console_script_targets_cli_entry(self):
        # the [project.scripts] wiring an install turns into `cheaptalk`
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, _, attr = scripts["cheaptalk"].partition(":")
        target = getattr(importlib.import_module(module), attr)
        assert target is entry
        with pytest.raises(SystemExit) as exc:
            target(["--version"])
        assert exc.value.code == 0


# Run one statement in a fresh interpreter and print the scipy modules it
# left loaded, one per line.
_LOADED_SCIPY = """\
import contextlib, io, sys
{statement}
print(*sorted(m for m in sys.modules if m.startswith("scipy")), sep="\\n")
"""


def loaded_scipy(statement):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY.format(statement=statement)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def cli_statement(*argv):
    return ("from cheaptalk.cli import entry\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert entry({list(argv)!r}) == 0")


class TestImportGate:
    """Every runtime path, exponential and Gaussian, runs on numpy alone;
    scipy serves only the quadrature oracle and the tests."""

    @pytest.mark.parametrize("module", ["cheaptalk", "cheaptalk.cli"])
    def test_import_loads_no_scipy(self, module):
        assert loaded_scipy(f"import {module}") == set()

    @pytest.mark.parametrize("argv", [
        ("solve", "--source", "exp", "--rate", "1.3", "--bias", "0.2",
         "--bins", "4"),
        ("sweep", "--source", "exp", "--rate", "1.3", "--vary", "bias",
         "--from", "-0.6", "--to", "0.4", "--steps", "50", "--bins", "3",
         "--format", "json"),
        ("dynamics", "--source", "exp", "--rate", "1.3", "--bias", "0.2",
         "--bins", "4", "--init", "0.3,1.1,2.4"),
    ])
    def test_exponential_commands_load_no_scipy(self, argv):
        assert loaded_scipy(cli_statement(*argv)) == set()

    def test_exponential_verify_loads_no_scipy(self, capsys, tmp_path):
        path = str(tmp_path / "doc.json")
        assert run(capsys, "solve", "--source", "exp", "--rate", "1.3",
                   "--bias", "0.2", "--bins", "4", "--out", path)[0] == 0
        assert loaded_scipy(cli_statement("verify", path, "--seed", "5")) == set()

    def test_exponential_library_loads_no_scipy(self):
        statement = (
            "import cheaptalk as ct\n"
            "src = ct.SourceModel.exponential(1.3)\n"
            "p = ct.solve_n_bins(1.3, 0.2, 4)\n"
            "ct.certify(p); ct.decoder_cost(p); ct.monte_carlo_cost(p, 1000, 1)\n"
            "ct.infinite_equilibrium(1.3, 0.2); ct.decoder_cost_infinite(1.3, 0.2)\n"
            "ct.empirical_max_bins(1.3, -0.1); ct.solve_two_bin(1.3, -0.1)\n"
            "for method in ('lloyd', 'fixed-point'):\n"
            "    ct.basin_probe(src, 0.2, 3, 4, seed=1, method=method)\n"
            "src.bin_variances([0.0, 1.0, 2.0]); src.quantile(0.3)")
        assert loaded_scipy(statement) == set()

    @pytest.mark.parametrize("argv", [
        ("solve", "--source", "gauss", "--mean", "0.2", "--std", "1.4",
         "--bias", "0.3", "--bins", "4"),
        ("solve", "--source", "gauss", "--mean", "0.2", "--std", "1.4",
         "--bias", "-0.3", "--bins", "2"),
        ("solve", "--source", "gauss", "--mean", "0.2", "--std", "1.4",
         "--bias", "-0.3", "--ladder"),
        ("sweep", "--source", "gauss", "--vary", "bias", "--from", "-0.4",
         "--to", "0.4", "--steps", "5", "--bins", "3", "--format", "json"),
        ("dynamics", "--source", "gauss", "--bias", "0.2", "--bins", "4",
         "--seed", "3"),
    ])
    def test_gaussian_commands_load_no_scipy(self, argv):
        assert loaded_scipy(cli_statement(*argv)) == set()

    def test_gaussian_verify_loads_no_scipy(self, capsys, tmp_path):
        path = str(tmp_path / "doc.json")
        assert run(capsys, "solve", "--source", "gauss", "--mean", "0.2",
                   "--std", "1.4", "--bias", "0.3", "--bins", "4",
                   "--out", path)[0] == 0
        assert loaded_scipy(cli_statement("verify", path, "--seed", "5")) == set()

    def test_gaussian_library_loads_no_scipy(self):
        statement = (
            "import cheaptalk as ct\n"
            "src = ct.SourceModel.gaussian(0.2, 1.4)\n"
            "p = ct.solve_n_bins_gauss(0.2, 1.4, 0.3, 4)\n"
            "ct.solve_two_bin_gauss(0.2, 1.4, -0.3)\n"
            "ct.solve_truncated_ladder(src, -0.3)\n"
            "ct.certify(p); ct.decoder_cost(p); ct.monte_carlo_cost(p, 1000, 1)\n"
            "for method in ('lloyd', 'fixed-point'):\n"
            "    ct.basin_probe(src, 0.2, 3, 4, seed=1, method=method)\n"
            "src.quantile(1e-300); src.quantile(0.3)")
        assert loaded_scipy(statement) == set()


_PEAK_RSS = """\
import contextlib, io, resource
from cheaptalk.cli import entry
with contextlib.redirect_stdout(io.StringIO()):
    code = entry({argv!r})
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
class TestMemoryGate:
    """`verify` samples in fixed blocks, so its memory does not grow with
    --mc-samples."""

    def verify_peak_kib(self, path, samples):
        argv = ["verify", path, "--seed", "5", "--mc-samples", str(samples)]
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS.format(argv=argv)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.split())
        return code, peak

    def test_verify_peak_rss_does_not_grow_with_samples(self, capsys, tmp_path):
        path = str(tmp_path / "doc.json")
        assert run(capsys, "solve", "--source", "exp", "--rate", "1.3",
                   "--bias", "0.2", "--bins", "4", "--out", path)[0] == 0
        code_many, many = self.verify_peak_kib(path, 4_000_000)
        code_few, few = self.verify_peak_kib(path, 2)
        assert code_many == 0 and code_few in (0, 3)
        assert many - few < 16 * 1024
