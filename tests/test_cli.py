import csv
import math

import numpy as np
import pytest

from pathtransport.cli import main


def run(args, tmp_path, capsys, subdir="out"):
    out = tmp_path / subdir
    code = main([*args, "--out", str(out)])
    captured = capsys.readouterr()
    return code, out, captured.out


def test_list_geometries(capsys):
    assert main(["list-geometries"]) == 0
    text = capsys.readouterr().out
    for name in ("flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear"):
        assert name in text


def test_check_laws_flat_exits_zero(tmp_path, capsys):
    code, out, _ = run(["check-laws", "--geometry", "flat", "--samples", "5"], tmp_path, capsys)
    assert code == 0
    text = (out / "law_reports.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert all(r["passed"] == "true" for r in rows)
    groupoid = next(r for r in rows if r["law_id"] == "groupoid")
    assert float(groupoid["max_residual"]) == 0.0


def test_check_laws_exit_one_iff_a_record_failed(tmp_path, capsys):
    # the evolution transport legitimately fails reparametrization invariance
    code, out, _ = run(["check-laws", "--geometry", "evolution", "--samples", "3"], tmp_path, capsys)
    assert code == 1
    rows = list(csv.DictReader((out / "law_reports.csv").read_text().splitlines()))
    failed = [r for r in rows if r["passed"] == "false"]
    assert failed
    assert {"parametrization", "reparametrization-invariance"} <= {r["law_id"] for r in rows}


@pytest.mark.parametrize("seed", [26, 63, 108])
def test_check_laws_sphere_passes_where_plain_differences_failed_smoothness(tmp_path, capsys, seed):
    # At these seeds the plain central-difference lift tangents missed the
    # smoothness tolerance by their O(h^2) truncation error alone.
    code, out, _ = run(["check-laws", "--geometry", "sphere", "--seed", str(seed)], tmp_path, capsys)
    rows = {r["law_id"]: r for r in csv.DictReader((out / "law_reports.csv").read_text().splitlines())}
    assert float(rows["smoothness"]["max_residual"]) <= 1e-8
    assert code == 0


def test_factorize_evolution_reports_failure(tmp_path, capsys):
    code, out, _ = run(["factorize", "--geometry", "evolution", "--points", "4"], tmp_path, capsys)
    assert code == 1
    text = (out / "factorization.txt").read_text()
    assert "factorizable=false" in text
    assert "factorizable=true" not in text


def test_factorize_sphere_passes(tmp_path, capsys):
    code, out, _ = run(["factorize", "--geometry", "sphere", "--points", "3"], tmp_path, capsys)
    assert code == 0
    assert "factorizable=true" in (out / "factorization.txt").read_text()


def test_holonomy_latitude_loop_csv(tmp_path, capsys):
    code, out, _ = run(["holonomy", "--geometry", "sphere", "--loop", "latitude:pi/3"], tmp_path, capsys)
    assert code == 0
    rows = list(csv.DictReader((out / "holonomy.csv").read_text().splitlines()))
    assert rows[0]["loop_param"] == "latitude:pi/3"
    assert float(rows[0]["angle"]) == pytest.approx(3.141593, abs=1e-6)


def test_holonomy_sweep_matches_formula(tmp_path, capsys):
    code, out, _ = run(
        ["holonomy", "--geometry", "sphere-orthonormal", "--sweep", "0.4:1.2:5"], tmp_path, capsys
    )
    assert code == 0
    rows = list(csv.DictReader((out / "holonomy.csv").read_text().splitlines()))
    assert len(rows) == 5
    for row in rows:
        theta0 = float(row["loop_param"])
        assert float(row["angle"]) == pytest.approx(2 * math.pi * (1 - math.cos(theta0)), abs=1e-6)


def test_transport_writes_matrix_csv(tmp_path, capsys):
    code, out, text = run(
        [
            "transport",
            "--geometry",
            "sphere",
            "--path",
            "latitude:colatitude=pi/3",
            "--from",
            "0",
            "--to",
            str(math.pi),
            "--vector",
            "1,0",
        ],
        tmp_path,
        capsys,
    )
    assert code == 0
    assert "components:" in text
    rows = list(csv.DictReader((out / "transport_matrix.csv").read_text().splitlines()))
    assert len(rows) == 4
    m = np.zeros((2, 2))
    for r in rows:
        m[int(r["a"]), int(r["b"])] = float(r["value"])
    # halfway around the pi/3 latitude the coordinate-frame matrix is
    # [[cos, s sin], [-sin/s, cos]] at rotation pi/2 with s = sin(pi/3)
    s0 = math.sin(math.pi / 3)
    expected = np.array([[0.0, s0], [-1.0 / s0, 0.0]])
    # values pass through the 9-significant-digit report format
    assert np.max(np.abs(m - expected)) <= 1e-8
    coeff_rows = list(csv.DictReader((out / "transport_coefficients.csv").read_text().splitlines()))
    assert len(coeff_rows) == 11 * 4
    first = coeff_rows[1]  # s=0, a=0, b=1: -sin cos at pi/3
    assert (first["a"], first["b"]) == ("0", "1")
    assert float(first["value"]) == pytest.approx(-math.sqrt(3) / 4)


def test_outdir_environment_variable(tmp_path, capsys, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("PATHTRANSPORT_OUTDIR", str(target))
    assert main(["holonomy", "--geometry", "sphere", "--loop", "latitude:pi/3"]) == 0
    capsys.readouterr()
    assert (target / "holonomy.csv").exists()


def test_roundtrip_command(tmp_path, capsys):
    code, out, _ = run(
        ["roundtrip", "--geometry", "sphere", "--samples", "10", "--points", "4"], tmp_path, capsys
    )
    assert code == 0
    rows = list(csv.DictReader((out / "roundtrip.csv").read_text().splitlines()))
    ids = {r["law_id"] for r in rows}
    assert ids == {"roundtrip-transport", "roundtrip-connection"}
    assert all(r["passed"] == "true" for r in rows)


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    args = ["check-laws", "--geometry", "sphere", "--samples", "4", "--seed", "9"]
    _, out1, _ = run(args, tmp_path, capsys, subdir="a")
    _, out2, _ = run(args, tmp_path, capsys, subdir="b")
    assert (out1 / "law_reports.csv").read_bytes() == (out2 / "law_reports.csv").read_bytes()
    assert (out1 / "law_reports.txt").read_bytes() == (out2 / "law_reports.txt").read_bytes()

    sweep = ["holonomy", "--geometry", "sphere-orthonormal", "--sweep", "0.5:1.0:4", "--seed", "9"]
    _, s1, _ = run(sweep, tmp_path, capsys, subdir="c")
    _, s2, _ = run(sweep, tmp_path, capsys, subdir="d")
    assert (s1 / "holonomy.csv").read_bytes() == (s2 / "holonomy.csv").read_bytes()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = flat\nsamples = 3\nseed = 4\n")
    out = tmp_path / "cfg_out"
    code = main(["--config", str(cfg), "check-laws", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader((out / "law_reports.csv").read_text().splitlines()))
    assert rows[0]["seed"] == "4"
    # explicit flags win over the config file
    out2 = tmp_path / "cfg_out2"
    code = main(["--config", str(cfg), "check-laws", "--seed", "11", "--out", str(out2)])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader((out2 / "law_reports.csv").read_text().splitlines()))
    assert rows[0]["seed"] == "11"


def test_geometry_file_spec(tmp_path, capsys):
    spec = tmp_path / "geom.txt"
    spec.write_text("kind = builtin\nbuiltin_id = flat\n")
    out = tmp_path / "gf"
    code = main(["check-laws", "--geometry-file", str(spec), "--samples", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["check-laws", "--geometry", "nope"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["holonomy", "--geometry", "sphere"]) == 2  # neither --loop nor --sweep
    capsys.readouterr()
    missing = tmp_path / "missing.cfg"
    assert main(["--config", str(missing), "list-geometries"]) == 2
    capsys.readouterr()
    assert main(["check-laws"]) == 2  # no geometry at all
    capsys.readouterr()
    assert main(["transport", "--geometry", "sphere", "--path", "nosuch:1", "--vector", "1,0"]) == 2
    capsys.readouterr()
    assert main(["check-laws", "--geometry", "flat", "--step", "-1"]) == 2
    capsys.readouterr()
    assert main(["check-laws", "--geometry", "flat", "--tolerance", "0"]) == 2
    capsys.readouterr()
    # A config key names a flag's dest and is typed like that flag; a key that
    # names no flag, a value of the wrong type or a count below 1 exits 2.
    config = tmp_path / "run.cfg"
    for text, named in (("stpe = 0.5", "'stpe'"), ("seed = 1.5", "'seed'"), ("samples = 0", "--samples")):
        config.write_text(f"geometry = flat\n{text}\n")
        assert main(["--config", str(config), "check-laws", "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
    # One config serves several subcommands: holonomy ignores check-laws' samples.
    config.write_text("geometry = sphere-orthonormal\nsamples = 3\nloop = latitude:1.0\nstep = 1e-2\n")
    assert main(["--config", str(config), "holonomy", "--out", str(tmp_path / "shared")]) == 0
    assert (tmp_path / "shared" / "holonomy.csv").exists()


@pytest.mark.parametrize(
    "spec_dims, grid_row",
    [
        ("base_dim = two\nfibre_dim = 1", "1,0,0,0,0.5"),
        ("base_dim = 1\nfibre_dim = 1", "1,0,0,0,abc"),
        ("base_dim = 1\nfibre_dim = 1", "1,0.7,0,0,0.5"),
    ],
    ids=["non-integer-dimension", "non-numeric-grid-cell", "fractional-grid-index"],
)
def test_malformed_numbers_in_a_geometry_file_exit_two(tmp_path, capsys, spec_dims, grid_row):
    grid = tmp_path / "grid.csv"
    grid.write_text(f"-1,0,0,0,-0.5\n{grid_row}\n")
    spec = tmp_path / "geom.txt"
    spec.write_text(f"kind = grid\n{spec_dims}\ngrid_file = {grid}\n")
    code = main(["check-laws", "--geometry-file", str(spec), "--samples", "2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-laws", "--geometry", "flat", "--step", "nan"],
        ["check-laws", "--geometry", "flat", "--step", "inf"],
        ["check-laws", "--geometry", "flat", "--tolerance", "nan"],
        ["factorize", "--geometry", "sphere", "--threshold", "nan"],
        ["factorize", "--geometry", "sphere", "--threshold", "-1"],
        ["roundtrip", "--geometry", "flat", "--threshold", "0"],
        ["check-laws", "--geometry", "flat", "--samples", "0"],
        ["check-laws", "--geometry", "flat", "--samples", "-1"],
        ["check-laws", "--geometry", "flat", "--fixtures", "0"],
        ["roundtrip", "--geometry", "flat", "--samples", "0"],
        ["factorize", "--geometry", "flat", "--points", "0"],
        ["holonomy", "--geometry", "sphere", "--sweep", "0.3:1.4:x"],
        ["holonomy", "--geometry", "sphere", "--sweep", "0.3:1.4:-2"],
        ["holonomy", "--geometry", "sphere", "--sweep", "0.3:1.4:0"],
        ["transport", "--geometry", "sphere", "--path", "latitude:pi/3", "--vector", "1,0,0"],
        ["transport", "--geometry", "sphere", "--path", "latitude:pi/3", "--vector", "1,nan"],
        ["transport", "--geometry", "nonlinear", "--path", "segment:from=0,0;to=0.5,0.5", "--vector", "0.1,0.2,0.3"],
    ],
)
def test_non_finite_or_non_positive_numeric_flags_exit_two(tmp_path, capsys, argv):
    code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_transport_to_a_parameter_within_the_domain_tolerance(tmp_path, capsys):
    # 1 + 1e-13 lies within the domain tolerance of the unit segment: the
    # transport and the coefficient dump both accept it.
    argv = ["transport", "--geometry", "sphere", "--path", "segment:from=1,0;to=1.2,0.3", "--to", "1.0000000000001"]
    code, out, text = run([*argv, "--vector", "1,0"], tmp_path, capsys)
    assert code == 0 and "components:" in text
    assert (out / "transport_matrix.csv").exists()
    assert len((out / "transport_coefficients.csv").read_text().splitlines()) == 1 + 11 * 4


def test_transport_integrates_its_request_once(tmp_path, capsys, monkeypatch):
    from pathtransport import transports

    calls = []
    original = transports.transport_matrices
    monkeypatch.setattr(transports, "transport_matrices", lambda *a, **k: calls.append(a[1]) or original(*a, **k))
    argv = ["transport", "--geometry", "sphere", "--path", "latitude:pi/3", "--vector", "1,0"]
    code, out, text = run(argv, tmp_path, capsys)
    assert code == 0 and "components:" in text and (out / "transport_matrix.csv").exists()
    assert len(calls) == 1 and len(calls[0]) == 1


def test_factorize_integrates_all_its_points_in_one_batch(tmp_path, capsys, monkeypatch):
    from pathtransport import transports

    calls = []
    original = transports.transport_matrices
    monkeypatch.setattr(transports, "transport_matrices", lambda *a, **k: calls.append(a[1]) or original(*a, **k))
    code, out, text = run(["factorize", "--geometry", "sphere", "--points", "5"], tmp_path, capsys)
    assert code == 0 and text.count("factorizable=true") == 5 and (out / "factorization.txt").exists()
    # Two coordinate probes, 8 drawn velocities and the zero velocity, each at +-FD_STEP, at 5 points.
    assert len(calls) == 1 and len(calls[0]) == 5 * 11 * 2


@pytest.mark.parametrize("command", ["check-laws", "roundtrip"])
def test_step_flag_reaches_every_transport(tmp_path, capsys, monkeypatch, command):
    # The parallel-axiom rows, the smoothness row and roundtrip's back
    # transport integrate at --step too, not at the default span / 1000.
    from pathtransport import engine, transports

    steps = []
    original = engine.transport_matrices

    def recording(geometry, requests, *, step=None):
        steps.append(step)
        return original(geometry, requests, step=step)

    monkeypatch.setattr(engine, "transport_matrices", recording)
    monkeypatch.setattr(transports, "transport_matrices", recording)
    # At so coarse a step some rows miss their tolerance; only the steps matter.
    run([command, "--geometry", "sphere", "--step", "0.05", "--samples", "3"], tmp_path, capsys)
    assert steps and set(steps) == {0.05}
