import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from minsurf import cli
from minsurf.cli import dumps, main
from minsurf.geometry2d import CHECK_NAMES
from minsurf.solver import load_solution
from minsurf.surfaces import catalog

README = Path(__file__).resolve().parents[1] / "README.md"

REPORT_KEYS = ["surface", "config", "seed", "tolerances", "points_requested",
               "points_evaluated", "points_skipped", "skip_reasons", "per_check",
               "ricci", "signature", "oracle", "pass", "wall_time_ms"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def verify_report(capsys, *argv):
    code, out, err = run(capsys, "verify", *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_verify_scherk_instanton(capsys):
    code, rep, _ = verify_report(capsys, "--surface", "scherk", "--n", "1",
                                 "--eps-blocks", "1", "--e0", "0", "--m1", "0", "--n1", "0")
    assert code == 0
    assert rep["pass"] is True
    assert rep["signature"] == 4
    assert rep["ricci"]["max_normalized"] < 1e-7
    assert rep["points_evaluated"] == 100


def test_verify_nonminimal_fails(capsys):
    code, rep, _ = verify_report(capsys, "--surface", "nonminimal_x2", "--n", "1",
                                 "--eps-blocks", "1")
    assert code == 1
    assert rep["pass"] is False
    assert rep["ricci"]["max_normalized"] > 1e-7
    assert rep["per_check"]["P5"]["max_normalized_residual"] > 1e-3


def test_verify_unknown_surface_exit2(capsys):
    code, out, err = run(capsys, "verify", "--surface", "nosuch")
    assert code == 2
    assert out == ""  # no JSON on usage errors
    assert "unknown surface" in err


def test_verify_flag_validation(capsys):
    code, _, err = run(capsys, "verify", "--surface", "scherk", "--n", "2",
                       "--eps-blocks", "1")
    assert code == 2 and "eps-blocks" in err
    code, _, err = run(capsys, "verify", "--surface", "scherk", "--grid", "x.txt")
    assert code == 2
    code, _, err = run(capsys, "verify")
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                        ("--tol", "nan"), ("--tol", "inf"),
                                        ("--tol", "0"), ("--tol", "-1e-7")])
def test_verify_bad_numeric_flag_exit2(capsys, flag, value):
    code, out, err = run(capsys, "verify", "--surface", "plane", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("param,name", [("bogus=1", "bogus"), ("a=foo", "a"), ("a=nan", "a")])
def test_verify_bad_param_exit2(capsys, param, name):
    code, out, err = run(capsys, "verify", "--surface", "plane", "--param", param)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and repr(name) in err


def test_verify_string_param(capsys):
    code, rep, _ = verify_report(capsys, "--surface", "bi_wave", "--param", "profile=linear",
                                 "--samples", "5")
    assert code == 0 and rep["pass"]


def test_verify_fails_when_signature_varies(capsys, monkeypatch):
    from minsurf import assembly
    real = assembly.signature_values

    def varying(comp):
        sig = real(comp).copy()
        sig[-1] = -sig[-1]
        return sig

    monkeypatch.setattr(assembly, "signature_values", varying)
    code, rep, _ = verify_report(capsys, "--surface", "plane", "--samples", "5")
    assert code == 1
    assert rep["pass"] is False
    assert rep["signature"] == 4  # still point 0's


def test_verify_report_schema(capsys):
    _, rep, _ = verify_report(capsys, "--surface", "plane", "--samples", "10")
    assert list(rep.keys()) == REPORT_KEYS
    assert list(rep["per_check"].keys()) == list(CHECK_NAMES)
    for entry in rep["per_check"].values():
        assert list(entry.keys()) == ["max_normalized_residual", "worst_point", "points_skipped"]
    assert list(rep["ricci"].keys()) == ["max_abs", "max_normalized", "worst_point"]
    assert list(rep["skip_reasons"].keys()) == list(cli.SKIP_REASONS)
    assert rep["points_evaluated"] + rep["points_skipped"] == rep["points_requested"]


def test_verify_deterministic_output(capsys):
    args = ("--surface", "catenoid", "--n", "2", "--eps-blocks", "1,-1",
            "--n1", "0.25", "--seed", "9", "--samples", "40")
    _, out1, _ = run(capsys, "verify", *args)
    _, out2, _ = run(capsys, "verify", *args)
    strip = lambda s: re.sub(r'"wall_time_ms": \d+', "", s)
    assert strip(out1) == strip(out2)


def test_verify_oracle_mode(capsys):
    # the oracle entry is a diagnostic: pure FD truncation, so its size
    # depends on where the sampler landed (edge points have steep metrics);
    # the sharp interior-point bound lives in the acceptance suite
    code, rep, _ = verify_report(capsys, "--surface", "scherk", "--samples", "20", "--oracle")
    assert code == 0
    assert rep["oracle"]["step"] == 1e-3
    assert rep["oracle"]["points"] == 10
    assert rep["oracle"]["max_abs_difference"] < 1e-1


def test_verify_json_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--surface", "plane", "--samples", "5",
                       "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_verify_config_file_with_flag_override(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("surface = scherk\nn = 2\neps_blocks = 1,-1\nsamples = 15\nseed = 5\n")
    code, rep, _ = verify_report(capsys, "--config", str(cfgfile), "--samples", "10")
    assert code == 0
    assert rep["surface"] == "scherk"
    assert rep["config"]["n"] == 2
    assert rep["points_evaluated"] == 10  # flag overrides config
    assert rep["seed"] == 5


def test_verify_surface_params(capsys):
    code, rep, _ = verify_report(capsys, "--surface", "plane", "--param", "a=0",
                                 "--param", "b=0", "--samples", "5")
    assert code == 0 and rep["pass"]


def test_verify_grid_file(capsys, tmp_path):
    path = tmp_path / "sol.minsurf"
    code, _, _ = run(capsys, "solve", "--boundary", "scherk", "--grid", "33,33",
                     "--out", str(path))
    assert code == 0
    code, rep, _ = verify_report(capsys, "--grid", str(path), "--samples", "20")
    # FD-level jets cannot meet the exact-identity tolerance: honest fail,
    # but the Ricci residual must already be small
    assert code == 1
    assert rep["surface"].startswith("grid:")
    assert rep["points_evaluated"] == 20
    assert rep["ricci"]["max_normalized"] < 1e-2


def test_verify_grid_missing_file_exit3(capsys):
    code, _, err = run(capsys, "verify", "--grid", "/nonexistent/f.txt")
    assert code == 3


def test_verify_oracle_rejected_for_grids(capsys, tmp_path):
    path = tmp_path / "sol.minsurf"
    run(capsys, "solve", "--boundary", "linear:1,0,0", "--grid", "17,17", "--out", str(path))
    code, _, err = run(capsys, "verify", "--grid", str(path), "--oracle")
    assert code == 2


def test_solve_linear_quick_convergence(capsys, tmp_path):
    path = tmp_path / "lin.minsurf"
    code, out, _ = run(capsys, "solve", "--boundary", "linear:2,-1,0",
                       "--grid", "17,17", "--out", str(path))
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) <= 3  # converges in at most two iterations
    assert path.exists()


def test_solve_stops_at_rounding_floor(capsys, tmp_path):
    # the Coons patch of a plane is exact; its round-off residual sits above
    # --tol 1e-14, so the line search stalls there and that counts as converged
    path = tmp_path / "plane.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "linear:0.3,1.7,-2.5",
                         "--grid", "65,65", "--tol", "1e-14", "--out", str(path))
    assert code == 0 and err == ""
    assert json.loads(out.strip().splitlines()[-1])["residual"] > 1e-14
    assert load_solution(path).converged


def test_solve_catalog_boundary_catenoid(capsys, tmp_path):
    # Dirichlet data from the catalog's catenoid: the solution matches the
    # exact graph at the nodes to O(h^2)
    errors = []
    for grid in (33, 65):
        path = tmp_path / f"cat{grid}.minsurf"
        code, _, _ = run(capsys, "solve", "--boundary", "catenoid", "--grid", f"{grid},{grid}",
                         "--domain=1.2,2.5,-0.8,0.8", "--out", str(path))
        assert code == 0
        sol = load_solution(path)
        X, Y = np.meshgrid(sol.xs, sol.ys, indexing="ij")
        errors.append(np.abs(sol.values - np.arccosh(np.hypot(X, Y))).max())
    assert errors[0] < 2e-4 and errors[1] < 5e-5
    assert errors[0] / errors[1] > 3.0


def test_solve_boundary_outside_surface_domain_exit2(capsys, tmp_path):
    # the helicoid's arctan(y/x) is undefined on the default square's x = 0
    path = tmp_path / "h.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "helicoid", "--out", str(path))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert not path.exists()
    assert "--boundary helicoid" in err
    assert "x in [0.1, 2], y in [-1.5, 1.5]" in err  # the catalog domain box


def test_solve_unknown_boundary_lists_catalog(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--boundary", "nosuch", "--out", str(tmp_path / "x"))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert all(spec.name in err for spec in catalog())


def test_negative_values_as_separate_arguments(capsys, tmp_path):
    code, rep, _ = verify_report(capsys, "--surface", "plane", "--n", "2",
                                 "--eps-blocks", "-1,1", "--samples", "5")
    assert code == 0 and rep["config"]["eps_blocks"] == [-1, 1]
    code, out, err = run(capsys, "verify", "--surface", "plane", "--tol", "-1e-7")
    assert code == 2 and out == ""
    assert "--tol must be a positive finite number" in err
    path = tmp_path / "lin.minsurf"
    code, _, _ = run(capsys, "solve", "--boundary", "linear:2,-1,0", "--grid", "17,17",
                     "--domain", "-1,1,-1,1", "--out", str(path))
    assert code == 0 and path.exists()


def test_normalize_argv_joins_only_number_like_values():
    assert cli._normalize_argv(["--tol", "-.5", "--n", "2"]) == ["--tol=-.5", "--n", "2"]
    assert cli._normalize_argv(["--domain=-1,1,-1,1"]) == ["--domain=-1,1,-1,1"]
    assert cli._normalize_argv(["--oracle", "--json", "-x"]) == ["--oracle", "--json", "-x"]
    assert cli._normalize_argv(["--n", "2", "-1"]) == ["--n", "2", "-1"]


def readme_commands():
    """argv of every ``minsurf ...`` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("minsurf ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(cli._normalize_argv(argv))
        except SystemExit:
            pytest.fail(f"README command does not parse: minsurf {shlex.join(argv)}")


def test_readme_curvature_examples_run(capsys):
    commands = [argv for argv in readme_commands() if argv[0] == "curvature"]
    assert len(commands) == 3
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_solve_scherk_65(capsys, tmp_path):
    path = tmp_path / "s65.minsurf"
    code, out, _ = run(capsys, "solve", "--boundary", "scherk", "--grid", "65,65",
                       "--out", str(path))
    assert code == 0
    final = json.loads(out.strip().splitlines()[-1])
    assert final["residual"] < 1e-10


def test_solve_malformed_ambient_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--boundary", "scherk", "--ambient", "1,1,0",
                       "--grid", "9,9", "--out", str(tmp_path / "x.txt"))
    assert code == 2


def test_solve_boundary_file(capsys, tmp_path):
    ref = tmp_path / "ref.minsurf"
    run(capsys, "solve", "--boundary", "scherk", "--grid", "17,17", "--out", str(ref))
    out2 = tmp_path / "from_file.minsurf"
    code, _, _ = run(capsys, "solve", "--boundary", f"file:{ref}", "--grid", "17,17",
                     "--out", str(out2))
    assert code == 0
    from minsurf.solver import load_solution
    a, b = load_solution(ref), load_solution(out2)
    np.testing.assert_allclose(a.values, b.values, atol=1e-9)


def test_curvature_sphere(capsys):
    code, out, _ = run(capsys, "curvature", "--metric", "sphere:2", "--point", "1.0,0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["scalar"] == pytest.approx(0.5, rel=1e-12)


def test_curvature_flat_and_assembled(capsys):
    code, out, _ = run(capsys, "curvature", "--metric", "flat", "--point", "0,0")
    rep = json.loads(out)
    assert code == 0 and rep["max_abs_ricci"] == 0.0
    code, out, _ = run(capsys, "curvature", "--metric", "assembled:scherk,n=1",
                       "--point", "0.3,0.2")
    rep = json.loads(out)
    assert code == 0 and rep["max_abs_ricci"] < 1e-7


def test_curvature_assembled_block_signs(capsys):
    code, out, _ = run(capsys, "curvature", "--metric",
                       "assembled:scherk,n=2,eps=+-,e0=0.3,m1=1,n1=0.25",
                       "--point", "0.3,0.2")
    rep = json.loads(out)
    assert code == 0 and rep["dim"] == 6 and rep["max_abs_ricci"] < 1e-12


def test_curvature_invalid_specs(capsys):
    assert run(capsys, "curvature", "--metric", "torus", "--point", "0,0")[0] == 2
    assert run(capsys, "curvature", "--metric", "sphere:x", "--point", "0,0")[0] == 2
    assert run(capsys, "curvature", "--metric", "flat", "--point", "zero")[0] == 2
    assert run(capsys, "curvature", "--metric", "assembled:scherk,n=2,eps=+x",
               "--point", "0,0")[0] == 2


def test_dumps_formatting():
    assert dumps({"a": 1, "b": None, "c": True}) == '{"a": 1, "b": null, "c": true}'
    assert dumps(0.1) == "0.10000000000000001"  # 17 significant digits
    assert dumps([1.0, "x\"y"]) == '[1, "x\\"y"]'


def test_sampler_redraws_and_counts_skips():
    from minsurf import assembly
    from minsurf.jets import Jet3
    from minsurf.surfaces import EUCLIDEAN, SurfaceSpec

    def phi(x, y):
        return 0.1 * Jet3.variable("x", x) + 0.0 * Jet3.variable("y", y)

    half = SurfaceSpec("half", phi, EUCLIDEAN, (-1, 1, -1, 1),
                       admissible=lambda x, y: x > 0.0)
    x, y, requested, skips = cli.draw_points(half, assembly.AssemblyConfig(), 50, seed=3)
    assert x.size == 50 and (x > 0).all()
    assert requested == 50 + skips["NEAR_SINGULAR"]
    assert skips["NEAR_SINGULAR"] > 0
    assert skips["RHO_NONPOSITIVE"] == skips["LOG_DOMAIN"] == 0


def test_sampler_log_domain_exhaustion(capsys):
    # slope 0.5 keeps w2 = -1 + 0.25 cosh^2... < 0 on the whole strip, so a
    # fractional exponent rejects every candidate and verification aborts
    code, out, err = run(capsys, "verify", "--surface", "bi_wave",
                         "--param", "profile=linear", "--param", "slope=0.5",
                         "--n", "2", "--eps-blocks", "1,1", "--n1", "0.25",
                         "--samples", "10")
    assert code == 2
    assert out == ""
    assert "no admissible sample points" in err
