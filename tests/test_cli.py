import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from minsurf import cli
from minsurf.assembly import AssemblyConfig
from minsurf.cli import dumps, main
from minsurf.curvature import SingularMetric
from minsurf.geometry2d import CHECK_NAMES
from minsurf.solver import as_surface, load_solution
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


def test_verify_wide_conformal_factor_passes(capsys):
    """e^{2 Phi} spans 1.6e-17 to 9.4e14 over these points, so 32 of the 200
    whole 6x6 metrics have an eigenvalue ratio below SINGULAR_RCOND, while
    every 2x2 block keeps a ratio above 8e-3: the rule is per block.  The
    oracle's field keeps the block form, so the same rule gives its verdict;
    at seed 0 its stencil holds dense 6x6 metrics that fail the whole-metric ratio."""
    for oracle in ((), ("--oracle", "--seed", "0")):
        code, rep, err = verify_report(capsys, "--surface", "scherk", "--n", "2", "--e0", "1.959",
                                       "--m1=-2.648", "--n1=-0.567", "--samples", "200", *oracle)
        assert code == 0 and err == ""
        assert rep["pass"] is True
        if oracle:
            assert rep["oracle"]["points"] == 10


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
                                        ("--tol", "0"), ("--tol", "-1e-7"),
                                        ("--seed", "-1")])
def test_verify_bad_numeric_flag_exit2(capsys, flag, value):
    code, out, err = run(capsys, "verify", "--surface", "plane", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("name,argv", [
    *((name, ("verify", "--surface", "scherk", f"--{name}={value}"))
      for name in ("e0", "m1", "n1") for value in ("inf", "-inf", "nan")),
    ("n1", ("curvature", "--metric", "assembled:scherk,n1=inf", "--point", "0.3,0.2"))])
def test_non_finite_exponent_exit2(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {name} must be a finite number, got ")


def test_verify_negative_seed_names_flag_and_value(capsys):
    code, out, err = run(capsys, "verify", "--surface", "plane", "--seed=-7")
    assert (code, out, err) == (2, "", "error: --seed must be a non-negative integer, got -7\n")


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


def test_verify_config_file_reads_switches_paths_and_params(capsys, tmp_path):
    path = tmp_path / "report.json"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"surface = plane\nsamples = 5\noracle\njson = {path}\nparam = a=2\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfgfile))
    assert code == 0
    assert json.loads(out)["oracle"]["points"] == 5
    assert path.read_text() == out
    strip = lambda s: re.sub(r'"wall_time_ms": \d+', "", s)
    flags = ("--surface", "plane", "--samples", "5", "--oracle")
    assert strip(out) == strip(run(capsys, "verify", *flags, "--param", "a=2")[1])
    assert strip(out) != strip(run(capsys, "verify", *flags)[1])


@pytest.mark.parametrize("line", ["sampels = 7", "samples = abc", "oracle = true"])
def test_verify_bad_config_line_exit2(capsys, tmp_path, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"surface = plane\n{line}\n")
    code, out, err = run(capsys, "verify", "--config", str(cfgfile))
    assert code == 2
    assert out == "" and err.count("\n") == 1


def test_verify_config_file_skips_comments_and_blank_lines(capsys, tmp_path):
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text("surface = plane\nsamples = 5\nn = 2\n")
    commented.write_text("# a run\n\nsurface = plane\n   \n  # five points\nsamples = 5\n\nn = 2\n")
    (code, out, _), (code2, out2, _) = (run(capsys, "verify", "--config", str(p)) for p in (plain, commented))
    strip = lambda s: re.sub(r'"wall_time_ms": \d+', "", s)
    assert code == code2 == 0 and json.loads(out)["config"]["n"] == 2
    assert strip(out) == strip(out2)


@pytest.mark.parametrize("argv,message", [
    (["--surface", "plane", "--param", "a"], "--param expects key=value, got 'a'"),
    (["--surface", "plane", "--n", "2", "--eps-blocks=1,x"], "bad --eps-blocks '1,x'"),
    # a wave's direction is its catalog name, and slope shapes the linear profile only
    *((["--surface", name, "--param", f"direction={d}"],
       f"surface '{name}' has no parameter 'direction' (have: profile, slope)")
      for name in ("bi_wave", "bi_wave_minus") for d in ("-1", "0.5", "1")),
    (["--surface", "bi_wave", "--param", "slope=3"],
     "slope applies to the linear profile only, got slope=3.0 with profile='sinh'")])
def test_verify_malformed_surface_or_block_flags_exit2(capsys, argv, message):
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["verify", "--samples", "abc"], ["verify", "--bogus"],
                                  ["solve", "--boundary", "scherk", "--tol", "abc", "--out", "OUT"],
                                  ["solve", "--boundary", "scherk"],
                                  ["curvature", "--metric", "flat"], []])
def test_argparse_errors_one_line_exit2(capsys, tmp_path, argv):
    path = tmp_path / "s.minsurf"
    code, out, err = run(capsys, *(str(path) if a == "OUT" else a for a in argv))
    assert code == 2
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert not path.exists()


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


def test_verify_param_rejected_for_grids(capsys, tmp_path):
    # a grid has no factory parameters: --param would be dropped silently
    path = tmp_path / "sol.minsurf"
    run(capsys, "solve", "--boundary", "linear:1,0,0", "--grid", "17,17", "--out", str(path))
    code, out, err = run(capsys, "verify", "--grid", str(path), "--samples", "5", "--param", "bogus=1")
    assert code == 2
    assert out == "" and err.count("\n") == 1 and err.startswith("error: --param")


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
    # --tol 1e-14 but at the operator's rounding floor, which counts as converged
    path = tmp_path / "plane.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "linear:0.3,1.7,-2.5",
                         "--grid", "65,65", "--tol", "1e-14", "--out", str(path))
    assert code == 0 and err == ""
    assert json.loads(out.strip().splitlines()[-1])["residual"] > 1e-14
    assert load_solution(path).converged


def test_solve_stops_as_soon_as_it_reaches_rounding_floor(capsys, tmp_path):
    # iterate 2 is at 6.5e-13, under the floor but above --tol 1e-14: no
    # further Newton step can lower it, so the solve ends there
    path = tmp_path / "s65.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "scherk", "--grid", "65,65",
                         "--tol", "1e-14", "--out", str(path))
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 3
    assert load_solution(path).converged


@pytest.mark.parametrize("domain,message", [
    *(pytest.param(d, "finite x0 < x1 and y0 < y1", id=d)
      for d in ("1,1,0,1", "1,0,0,1", "0,1,0.5,0.5", "0,1,1,0", "0,inf,0,1", "nan,1,0,1")),
    # finite and ordered, but the spacing or its square underflows or overflows
    *(pytest.param(d, "on a 9x9 grid gives spacing", id=d)
      for d in ("0,1e-300,0,1", "0,1e-170,0,1e-170", "-1e308,1e308,-1,1"))])
def test_solve_degenerate_or_reversed_domain_exit2(capsys, tmp_path, domain, message):
    path = tmp_path / "x.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "linear:1,0,0", "--grid", "9,9",
                         f"--domain={domain}", "--out", str(path))
    assert code == 2
    assert out == "" and err.count("\n") == 1 and message in err
    assert not path.exists()


def _grid_file(nx, ny, domain, ambient="1 1 0 1", center="0"):
    """A minsurf v1 file of zeros, with ``center`` at the middle node."""
    rows = [["0"] * ny for _ in range(nx)]
    rows[nx // 2][ny // 2] = center
    body = "".join(" ".join(row) + "\n" for row in rows)
    return f"minsurf v1 {nx} {ny} {domain} {ambient}\n{body}"


@pytest.mark.parametrize("text,message", [
    pytest.param("minsurf v1\n", "header has 12 fields, found 2", id="header-only"),
    pytest.param("minsurf v1 9 9 0 1 0 1\n", "header has 12 fields, found 8", id="short-header"),
    pytest.param(_grid_file(9, 9, "0 1e-300 0 1"), "on a 9x9 grid gives spacing", id="spacing-underflows"),
    pytest.param(_grid_file(2, 9, "0 1 0 1"), "grid must be at least 3x3", id="2x9-grid"),
    pytest.param(_grid_file(9, 9, "1 0 0 1"), "finite x0 < x1 and y0 < y1", id="reversed-domain"),
    *(pytest.param(_grid_file(9, 9, "0 1 0 1", center=v), f"node (4, 4) holds the non-finite value {v}",
                   id=f"{v}-node") for v in ("nan", "inf")),
    pytest.param(_grid_file(9, 9, "0 1 0 1", center="abc"), "bad.minsurf: node (4, 4) holds 'abc', not a number",
                 id="abc-node"),
    *(pytest.param(_grid_file(9, 9, "0 1 0 1", ambient=f"{a} 1"), "needs finite k1, k2, k0 and a finite non-zero",
                   id=f"ambient-{a.replace(' ', ',')}") for a in ("inf 1 0", "1e308 1e308 0")),
    # a header field that does not parse is named, with the file
    pytest.param(_grid_file(9, 9, "0 1 0 1", ambient="1 1 0 1.5"),
                 "bad.minsurf: header field eps must be int, got '1.5'", id="eps-1.5"),
    pytest.param("minsurf v1 9.0 9 0 1 0 1 1 1 0 1\n", "bad.minsurf: header field nx must be int, got '9.0'",
                 id="nx-9.0"),
    pytest.param(_grid_file(9, 9, "0 1 0 one"), "bad.minsurf: header field y1 must be float, got 'one'",
                 id="y1-one")])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_malformed_solution_file_exit2_one_line(capsys, tmp_path, text, message, command):
    """verify --grid and solve --boundary file: check a file's header and grid
    with solve_minimal's rule: exit 2, one error line, no warning."""
    path, out_path = tmp_path / "bad.minsurf", tmp_path / "out.minsurf"
    path.write_text(text)
    argv = (["verify", "--grid", str(path)] if command == "verify"
            else ["solve", "--boundary", f"file:{path}", "--out", str(out_path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert caught == []
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not out_path.exists()


@pytest.mark.parametrize("center", ["1e50", "1e100", "1e160", "1e300"])
def test_large_solution_node_exit2_one_line(capsys, tmp_path, center):
    """A huge finite node overflows rho, the jets and the frame: verify --grid
    exits 2 with the singular-metric line alone and no warning, while solve
    --boundary file: reads only the edges and succeeds."""
    path, out_path = tmp_path / "big.minsurf", tmp_path / "out.minsurf"
    path.write_text(_grid_file(9, 9, "0 1 0 1", center=center))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--grid", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: metric is singular")
        code, out, err = run(capsys, "solve", "--boundary", f"file:{path}", "--out", str(out_path))
        assert code == 0 and err == ""
    assert caught == []
    assert load_solution(out_path).converged


def test_run_verification_large_node_raises_singular_metric(tmp_path):
    """A library caller of run_verification gets the one SingularMetric and
    no overflow warning, as the verify command does."""
    path = tmp_path / "big.minsurf"
    path.write_text(_grid_file(9, 9, "0 1 0 1", center="1e300"))
    spec = as_surface(load_solution(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularMetric, match="metric is singular"):
            cli.run_verification(spec, AssemblyConfig(), samples=100, seed=42, tol=1e-7, oracle=False)
    assert caught == []


@pytest.mark.parametrize("argv,code,message", [
    (["curvature", "--metric", "assembled:scherk,n=2,m1=200", "--point", "1.4,1.4"], 2, "metric is singular"),
    (["curvature", "--metric", "assembled:scherk,n=2,m1=1e300", "--point", "0.3,0.2"], 2, "metric is singular"),
    (["curvature", "--metric", "sphere:1e200", "--point", "1,0.5"], 2, "bad sphere radius in 'sphere:1e200'"),
    (["solve", "--boundary", "linear:1e160,0,0", "--grid", "9,9"], 1,
     "sparse solve failed: Matrix is exactly singular"),
    (["solve", "--boundary", "linear:1e160,0,0", "--grid", "65,65"], 1,
     "sparse solve failed: Matrix is exactly singular"),
    (["solve", "--boundary", "scherk", "--ambient", "1e154,1e154,0,1", "--grid", "65,65"], 0, None),
], ids=["curvature-m1-200", "curvature-m1-1e300", "sphere-1e200", "solve-linear-1e160", "solve-linear-1e160-65",
     "solve-ambient-1e154"])
def test_overflowing_input_one_line_no_warning(capsys, tmp_path, argv, code, message):
    """Every command computes under verify's floating-point policy: an
    overflow ends in the command's own one-line error, or in none, and never
    in a numpy warning or a traceback."""
    out_path = tmp_path / "o.minsurf"
    if argv[0] == "solve":
        argv = argv + ["--out", str(out_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run(capsys, *argv)
    assert caught == []
    assert got == code
    if message is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")
        assert not out_path.exists()


@pytest.mark.parametrize("flags", [("--tol", "inf"), ("--tol", "nan"), ("--max-iter", "-3")])
def test_solve_bad_tol_or_max_iter_exit2(capsys, tmp_path, flags):
    path = tmp_path / "s.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "scherk", "--grid", "33,33", *flags,
                         "--out", str(path))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert not path.exists()


def test_solve_max_iter_zero_exit1_writes_unconverged_file(capsys, tmp_path):
    path = tmp_path / "s.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "scherk", "--grid", "17,17", "--max-iter", "0",
                         "--out", str(path))
    assert code == 1
    assert re.fullmatch(r"error: residual \S+ after 0 iterations\n", err)
    assert [json.loads(line)["iteration"] for line in out.splitlines()] == [0]
    assert path.read_text().splitlines()[-1] == "# converged=false"
    assert not load_solution(path).converged


def test_solve_degenerate_rho_exit1_writes_no_file(capsys, tmp_path):
    # phi = x in the ambient with eps = -1: rho = 1 - phi_x^2 vanishes everywhere
    path = tmp_path / "d.minsurf"
    code, out, err = run(capsys, "solve", "--boundary", "linear:1,0,0", "--ambient", "1,1,0,-1",
                         "--grid", "9,9", "--out", str(path))
    assert (code, out, err) == (1, "", "error: discrete rho changes sign (degenerate induced metric)\n")
    assert not path.exists()


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


def test_readme_commands_parse(capsys, tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(cli._normalize_argv(argv))
        except cli.UsageError:
            pytest.fail(f"README command does not parse: minsurf {shlex.join(argv)}")
    # and they run as written, the solves first: the others read scherk65.minsurf;
    # verify --grid gives its honest 1 (finite-difference jets)
    monkeypatch.chdir(tmp_path)
    for argv in sorted(commands, key=lambda argv: argv[0] != "solve"):
        want = 1 if argv[:2] == ["verify", "--grid"] else 0
        assert main(list(argv)) == want, f"minsurf {shlex.join(argv)}"
    capsys.readouterr()


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


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


@pytest.mark.parametrize("ambient,message", [
    *(pytest.param(a, f"--ambient needs K1,K2,K0,EPS, got '{a}'", id=a) for a in ("1,1,0", "1,1,0,1,5")),
    *(pytest.param(a, "error: the ambient 2-metric needs finite k1, k2, k0 and a finite non-zero "
                      "determinant k1 k2 - k0^2, got ", id=a)
      # the last three overflow or zero the determinant
      for a in ("inf,1,0,1", "nan,1,0,1", "1,1,-inf,1", "1e308,1e308,0,1", "1,1,1e200,1", "1,1,1,1"))])
def test_solve_malformed_ambient_exit2(capsys, tmp_path, ambient, message):
    path = tmp_path / "x.minsurf"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "solve", "--boundary", "scherk", f"--ambient={ambient}",
                             "--grid", "9,9", "--out", str(path))
    assert caught == []
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not path.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--grid", "65", "--grid needs NX,NY, got '65'"),
    ("--grid", "9.5,9", "--grid needs NX,NY, got '9.5,9'"),
    ("--grid", "9,9,9", "--grid needs NX,NY, got '9,9,9'"),
    ("--domain", "0,1,0", "--domain needs X0,X1,Y0,Y1, got '0,1,0'"),
    ("--domain", "0,1,0,a", "--domain needs X0,X1,Y0,Y1, got '0,1,0,a'"),
    ("--boundary", "linear:1,2", "--boundary linear: needs A,B,C, got '1,2'")],
    ids=["grid-65", "grid-9.5,9", "grid-9,9,9", "domain-0,1,0", "domain-0,1,0,a", "linear-1,2"])
def test_solve_list_flags_name_themselves(capsys, tmp_path, flag, value, message):
    path = tmp_path / "x.minsurf"
    argv = {"--boundary": "linear:1,2,0", "--grid": "9,9", flag: value}
    code, out, err = run(capsys, "solve", *(f"{k}={v}" for k, v in argv.items()), "--out", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("eps", ["1.9", "-1.5", "0.5", "inf", "nan"])
def test_solve_non_integer_ambient_sign_exit2(capsys, tmp_path, eps):
    out = tmp_path / "x.minsurf"
    code, stdout, err = run(capsys, "solve", "--boundary", "linear:1,2,0", f"--ambient=1,1,0,{eps}",
                            "--grid", "9,9", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.count("\n") == 1 and "eps must be +1 or -1" in err


@pytest.mark.parametrize("eps", ["1", "-1", "1.0"])
def test_solve_integer_ambient_sign_in_header(capsys, tmp_path, eps):
    out = tmp_path / "x.minsurf"
    code, _, _ = run(capsys, "solve", "--boundary", "linear:1,2,0", f"--ambient=1,1,0,{eps}",
                     "--grid", "9,9", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0].split()[-1] == str(int(float(eps)))


def test_solve_boundary_file(capsys, tmp_path):
    ref = tmp_path / "ref.minsurf"
    run(capsys, "solve", "--boundary", "scherk", "--grid", "17,17", "--out", str(ref))
    out2 = tmp_path / "from_file.minsurf"
    # the grid and the domain come from the file, whatever --grid says
    code, _, _ = run(capsys, "solve", "--boundary", f"file:{ref}", "--out", str(out2))
    assert code == 0
    a, b = load_solution(ref), load_solution(out2)
    assert (b.nx, b.ny, b.x_range, b.y_range) == (a.nx, a.ny, a.x_range, a.y_range)
    np.testing.assert_allclose(a.values, b.values, atol=1e-9)


def test_curvature_sphere(capsys):
    code, out, _ = run(capsys, "curvature", "--metric", "sphere:2", "--point", "1.0,0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["scalar"] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("radius", [1e-80, 1e80])
def test_curvature_sphere_at_extreme_scales(capsys, radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "curvature", "--metric", f"sphere:{radius:g}", "--point", "1.0,0.5")
    assert code == 0 and err == ""
    assert json.loads(out)["scalar"] == pytest.approx(2.0 / radius ** 2, rel=1e-12)


#: curvature reports print every Christoffel symbol and Ricci entry, signed
#: zeros included; these are byte-for-byte the dense einsum engine's output
GOLDEN = Path(__file__).resolve().parent / "data"
CURVATURE_GOLDEN = [
    ("flat", "flat", "0.3,0.2"),
    ("polar", "polar", "1.3,0.0"),
    ("sphere2", "sphere:2", "1.0,0.5"),
    ("scherk_n1", "assembled:scherk,n=1", "0.3,0.2"),
    ("scherk_n3", "assembled:scherk,n=3,eps=+-+,e0=0.3,m1=1,n1=0.5", "0.3,0.2"),
]


@pytest.mark.parametrize("name,metric,point", CURVATURE_GOLDEN)
def test_curvature_report_bytes_match_golden(capsys, name, metric, point):
    code, out, err = run(capsys, "curvature", "--metric", metric, "--point", point)
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / f"curvature_{name}.json").read_bytes()


#: verify reports, byte for byte with wall_time_ms masked as 0: (name, argv, exit code)
VERIFY_GOLDEN = [
    ("scherk_n3_oracle", ["--surface", "scherk", "--n", "3", "--eps-blocks=1,-1,1", "--e0", "0.3",
                          "--m1", "1", "--n1", "0.5", "--samples", "500", "--oracle"], 0),
    ("catenoid_n2", ["--surface", "catenoid", "--n", "2", "--e0", "0.3", "--m1", "1", "--n1", "0.25"], 0),
    ("bi_wave_n2_oracle", ["--surface", "bi_wave", "--n", "2", "--eps-blocks=1,-1", "--n1", "0.25",
                           "--oracle"], 0),
    ("helicoid_pitch", ["--surface", "helicoid", "--param", "pitch=1.5"], 0),
    ("nonminimal_x2", ["--surface", "nonminimal_x2"], 1),
    # a grid's finite-difference jets miss the identity tolerance: pass false
    ("grid_scherk33", ["--grid", "s33.minsurf"], 1),
]

_WALL_TIME = re.compile(r'"wall_time_ms": \d+')


@pytest.mark.parametrize("name,argv,exit_code", VERIFY_GOLDEN, ids=[g[0] for g in VERIFY_GOLDEN])
def test_verify_report_bytes_match_golden(capsys, tmp_path, monkeypatch, name, argv, exit_code):
    """Once at the default chunk size and once in chunks of 16 points, so
    that every case crosses chunk boundaries: the oracle, bi_wave's masked
    check, the failing nonminimal_x2 and the grid."""
    monkeypatch.chdir(tmp_path)  # the grid file's relative name is part of its report
    if "--grid" in argv:
        assert run(capsys, "solve", "--boundary", "scherk", "--grid", "33,33",
                   "--out", "s33.minsurf")[0] == 0
    for chunk in (cli.VERIFY_CHUNK, 16):
        monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
        code, out, err = run(capsys, "verify", *argv)
        assert code == exit_code and err == ""
        masked = _WALL_TIME.sub('"wall_time_ms": 0', out)
        assert masked.encode() == (GOLDEN / f"verify_{name}.json").read_bytes(), chunk


def _xy_lorentzian():
    """phi = x y over the Lorentzian ambient: rho and w2 change sign, so
    candidates are skipped and P4c, MU and CC1 are valid at some points only."""
    from minsurf.jets import Jet3
    from minsurf.surfaces import LORENTZIAN, SurfaceSpec

    return SurfaceSpec("xy", lambda x, y: Jet3.variable("x", x) * Jet3.variable("y", y), LORENTZIAN,
                       (0.0, 2.0, 0.0, 2.0), admissible=lambda x, y: x + y > 0.5)


@pytest.mark.parametrize("size", ["C-1", "C", "C+1", "3C+1"])
@pytest.mark.parametrize("case", ["scherk_n3_oracle", "xy_lorentzian"])
def test_verify_report_bytes_do_not_depend_on_chunks(monkeypatch, size, case):
    """A sample of P points around multiples of the chunk size C gives the
    report, byte for byte, of one chunk holding all P points."""
    c = cli.VERIFY_CHUNK
    samples = {"C-1": c - 1, "C": c, "C+1": c + 1, "3C+1": 3 * c + 1}[size]
    if case == "xy_lorentzian":
        spec, cfg, oracle = _xy_lorentzian(), AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.0), False
    else:
        spec, cfg, oracle = catalog()[1], AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5), True

    def report():
        rep = cli.run_verification(spec, cfg, samples, seed=4, tol=1e-7, oracle=oracle)
        return dumps(dict(rep, wall_time_ms=0))

    chunked = report()
    monkeypatch.setattr(cli, "VERIFY_CHUNK", samples)
    assert chunked == report()


def test_first_max_is_argmax_over_the_whole_batch():
    """Reducing chunk by chunk with _first_max picks what np.argmax picks over
    the concatenated batch: ties keep the first point, a nan wins (the first
    nan first), and -inf fills where a chunk has no valid point."""
    cases = [
        [[1.0, 3.0], [3.0, 2.0]],  # a tie across chunks
        [[1.0, 2.0], [0.5, np.nan, np.nan]],  # a nan in a later chunk
        [[np.nan, 1.0], [np.nan, 5.0]],  # the first nan stays
        [[-np.inf, -np.inf], [0.5, 0.5], [-np.inf]],  # no valid point in some chunks
        [[-np.inf], [-np.inf, -np.inf]],  # no valid point at all
    ]
    rng = np.random.default_rng(5)
    for _ in range(300):  # few distinct values, so ties and nans across chunks are common
        values = rng.choice([-np.inf, 0.0, 1.0, 2.0, np.nan], size=rng.integers(1, 12),
                            p=[0.3, 0.2, 0.2, 0.2, 0.1])
        cuts = np.sort(rng.choice(np.arange(1, values.size), size=rng.integers(0, values.size), replace=False))
        cases.append([list(part) for part in np.split(values, cuts)])
    for chunks in cases:
        best, start = (-np.inf, 0), 0
        for vals in chunks:
            best = cli._first_max(best, np.array(vals), start)
            start += len(vals)
        whole = np.concatenate(chunks)
        at = int(np.argmax(whole))
        assert best[1] == at and np.array_equal(best[0], whole[at], equal_nan=True), chunks


def test_verify_error_in_a_later_chunk_exits_2_without_report(capsys, tmp_path, monkeypatch):
    """A 1e300 node that only a later chunk's points read (their 5x5
    stencils reach it) ends the run with exit 2, one line and no report."""
    path = tmp_path / "late.minsurf"
    path.write_text(_grid_file(25, 25, "0 1 0 1", center="1e300"))
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 16)
    sol = load_solution(path)
    with np.errstate(over="ignore", invalid="ignore"):  # as run_verification screens
        x, y = cli.draw_points(as_surface(sol), AssemblyConfig(), 100, seed=42)[:2]
    i, j = sol.nearest_node(x, y)
    reads_big = (np.abs(i - 12) <= 2) & (np.abs(j - 12) <= 2)
    assert not reads_big[:16].any() and reads_big.any()  # chunk 0 is clean, a later one is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--grid", str(path))
    assert code == 2 and out == "" and caught == []
    # the first bad chunk raises SingularMetric for the first rule its points break
    assert err.count("\n") == 1 and err.startswith("error: metric ")


def test_verify_memory_does_not_grow_with_samples():
    """The traced peak of a verify at 4 chunks of points stays within 1.5 times
    its peak at one chunk: only the sample's coordinates and phi jets grow."""
    import tracemalloc

    spec, cfg = catalog()[1], AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)
    cli.run_verification(spec, cfg, 50, seed=1, tol=1e-7, oracle=False)  # build the cached plans

    def peak(samples):
        tracemalloc.start()
        try:
            cli.run_verification(spec, cfg, samples, seed=1, tol=1e-7, oracle=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(cli.VERIFY_CHUNK), peak(4 * cli.VERIFY_CHUNK)
    assert four <= 1.5 * one, (one, four)


def test_verify_samples_too_large_to_hold_exit2_one_line(capsys):
    # the sampler allocates its arrays up front, so numpy's MemoryError comes
    # before any work
    code, out, err = run(capsys, "verify", "--surface", "scherk", "--samples", "10000000000000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")


def test_run_verification_reuses_freed_memory():
    """A library caller gets the CLI's malloc thresholds: in a fresh process,
    a second direct run_verification call on the verify-deep configuration
    (5000 points with the oracle) faults in almost no new heap pages, where
    glibc's defaults take about 10 000 minor faults."""
    import ctypes
    import subprocess
    import sys
    import textwrap
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("the C library has no mallopt")
    script = textwrap.dedent(f"""
        import resource, sys
        sys.path.insert(0, {str(README.parent / "src")!r})
        from minsurf import cli, surfaces
        from minsurf.assembly import AssemblyConfig
        spec, cfg = surfaces.get("scherk"), AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)
        cli.run_verification(spec, cfg, 5000, seed=0, tol=1e-7, oracle=True)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cli.run_verification(spec, cfg, 5000, seed=0, tol=1e-7, oracle=True)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_curvature_overflowing_curvature_exit2_one_line(capsys):
    # g^{-1} ~ 1e308 overflows the products: one error line, no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "curvature", "--metric", "sphere:1e-154", "--point", "1.0,0.5")
    assert code == 2 and out == ""
    assert err == "error: cannot write the non-finite number inf as JSON\n"


def test_curvature_non_finite_derivatives_exit2(capsys):
    # a^2 = 1e308 is finite, d^2 g = 2 a^2 cos 2x is not
    code, out, err = run(capsys, "curvature", "--metric", "sphere:1e154", "--point", "1,0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: metric derivatives are not finite")


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
    # e^{2 Phi} dwarfs g here, so the dense 6x6 metric fails the eigenvalue
    # ratio that each 2x2 block passes: the command keeps the block form
    code, out, err = run(capsys, "curvature", "--metric", "assembled:scherk,n=2,e0=1.959,m1=-2.648,n1=-0.567",
                         "--point=-1.363069968125636,0.3220141398843781")
    assert code == 0 and err == ""
    assert json.loads(out)["normalized_ricci"] < 1e-12


def test_curvature_invalid_specs(capsys):
    assert run(capsys, "curvature", "--metric", "torus", "--point", "0,0")[0] == 2
    assert run(capsys, "curvature", "--metric", "sphere:x", "--point", "0,0")[0] == 2
    assert run(capsys, "curvature", "--metric", "flat", "--point", "zero")[0] == 2
    assert run(capsys, "curvature", "--metric", "assembled:scherk,n=2,eps=+x",
               "--point", "0,0")[0] == 2
    # assembled: options are read as the flags --k=v; each bad one is one line naming its key
    for opt, what in (("n=x", "argument --n: invalid int value: 'x'"),
                      ("e0=abc", "argument --e0: invalid float value: 'abc'"),
                      ("eps=+x", "eps must be 1 signs of +/-, got '+x'"),
                      ("n1=inf", "n1 must be a finite number, got inf"),
                      ("n=1,e0=0,n=2", "assembled metric option 'n' is given more than once"),
                      ("foo=1", "unrecognized arguments: --foo=1"),
                      ("m=1", "unrecognized arguments: --m=1"),  # no abbreviation of m1
                      ("n", "argument --n: expected one argument"),
                      # n is checked before the sign string that defaults to n signs
                      ("n=-1", "n must be a positive integer, got -1"),
                      ("n=0", "n must be a positive integer, got 0"),
                      ("n=0,eps=+", "n must be a positive integer, got 0"),
                      # an empty option, as a trailing or doubled comma leaves
                      *((opt, f"empty option in assembled metric spec 'assembled:scherk,{opt}'")
                        for opt in ("n=2,", ",n=2", ""))):
        code, out, err = run(capsys, "curvature", "--metric", f"assembled:scherk,{opt}", "--point", "0.3,0.2")
        assert (code, out, err) == (2, "", f"error: {what}\n")
    code, out, err = run(capsys, "curvature", "--metric", "assembled:,n=2", "--point", "0.3,0.2")
    assert (code, out, err) == (2, "", "error: bad assembled metric spec 'assembled:,n=2'\n")


@pytest.mark.parametrize("point", ["inf,0", "0,-inf", "nan,0.5"])
def test_curvature_non_finite_point_exit2(capsys, point):
    code, out, err = run(capsys, "curvature", "--metric", "flat", "--point", point)
    assert code == 2 and out == ""
    assert err == f"error: --point must be two finite numbers, got {point!r}\n"


def test_curvature_inadmissible_point_names_point_and_domain(capsys):
    code, out, err = run(capsys, "curvature", "--metric", "assembled:scherk,n=1", "--point", "2.0,0.0")
    assert code == 2 and out == ""
    assert err == ("error: point (2, 0) is outside the domain or admissible set of scherk; its domain is "
                   "x in [-1.4708, 1.4708], y in [-1.4708, 1.4708]\n")


def test_dumps_formatting():
    assert dumps({"a": 1, "b": None, "c": True}) == '{"a": 1, "b": null, "c": true}'
    assert dumps(0.1) == "0.10000000000000001"  # 17 significant digits
    assert dumps([1.0, "x\"y"]) == '[1, "x\\"y"]'
    # a float array is one flat pass, with the bytes of its nested lists
    a = np.array([[[0.1, -0.0], [1e300, 2.0]], [[-1.5e-300, 3.0], [7.0, 1 / 3]]])
    assert dumps({"a": a}) == dumps({"a": a.tolist()}) == (
        '{"a": [[[0.10000000000000001, -0], [1.0000000000000001e+300, 2]], '
        '[[-1.5000000000000001e-300, 3], [7, 0.33333333333333331]]]}')
    assert dumps(np.array(2.5)) == "2.5" and dumps(np.zeros((2, 0))) == "[[], []]"


@pytest.mark.parametrize("value", [float("inf"), -np.inf, float("nan"), np.float64("nan")])
def test_dumps_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"point": [value, 0.0]})
    with pytest.raises(ValueError, match=f"the non-finite number {float(value)} as JSON"):
        dumps({"ricci": np.array([[1.0, 2.0], [value, -np.inf]])})  # the first in C order


def test_verify_oracle_builds_two_frames(capsys, monkeypatch):
    # one frame per chunk of the sample, and one for all nine stencil offsets of the oracle
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 16)
    init, shapes = cli.geometry2d.SurfaceFrame.__init__, []
    phi_jet, points = cli.surfaces.SurfaceSpec.phi_jet, []

    def counted(self, ambient, phi):
        shapes.append(phi.value.shape)
        init(self, ambient, phi)

    def evaluated(self, x, y):
        points.append(np.size(x))
        return phi_jet(self, x, y)

    monkeypatch.setattr(cli.geometry2d.SurfaceFrame, "__init__", counted)
    monkeypatch.setattr(cli.surfaces.SurfaceSpec, "phi_jet", evaluated)
    code, rep, _ = verify_report(capsys, "--surface", "scherk", "--n", "2", "--eps-blocks=1,-1",
                                 "--samples", "30", "--oracle")
    assert code == 0 and rep["oracle"]["points"] == cli.ORACLE_POINTS
    assert shapes == [(16,), (14,), (3, 3, cli.ORACLE_POINTS)]
    # phi is evaluated once per candidate, while screening (a round takes at
    # most a chunk), and once per oracle stencil point: the chunks' frames reuse the jets
    assert points == [16, 16, 9 * cli.ORACLE_POINTS]


def test_sampler_redraws_and_counts_skips():
    from minsurf import assembly
    from minsurf.jets import Jet3
    from minsurf.surfaces import EUCLIDEAN, SurfaceSpec

    def phi(x, y):
        return 0.1 * Jet3.variable("x", x) + 0.0 * Jet3.variable("y", y)

    half = SurfaceSpec("half", phi, EUCLIDEAN, (-1, 1, -1, 1),
                       admissible=lambda x, y: x > 0.0)
    x, y, requested, skips, phi = cli.draw_points(half, assembly.AssemblyConfig(), 50, seed=3)
    assert x.size == 50 and (x > 0).all()
    # the jets screened over several redraw chunks are phi's at the accepted points
    assert np.array_equal(phi.c.view(np.int64), half.phi_jet(x, y).c.view(np.int64))
    assert requested == 50 + skips["NEAR_SINGULAR"]
    assert skips["NEAR_SINGULAR"] > 0
    assert skips["RHO_NONPOSITIVE"] == skips["LOG_DOMAIN"] == 0


@pytest.mark.parametrize("samples", [50, 333])
def test_sampler_jets_skip_every_reason(samples):
    """phi = x*y over the Lorentzian ambient: rho = 1 + y^2 - x^2 and w2 = x^2 - 1
    change sign in the domain, so candidates are skipped for all three reasons
    over several redraw chunks; the returned jets are phi's at the accepted points."""
    from minsurf import assembly
    from minsurf.jets import Jet3
    from minsurf.surfaces import LORENTZIAN, SurfaceSpec

    spec = SurfaceSpec("xy", lambda x, y: Jet3.variable("x", x) * Jet3.variable("y", y), LORENTZIAN,
                       (0.0, 2.0, 0.0, 2.0), admissible=lambda x, y: x + y > 0.5)
    cfg = assembly.AssemblyConfig(2, (1, 1), 0.0, 0.0, 0.25)  # fractional exponents of w1, w2, rho
    x, y, requested, skips, phi = cli.draw_points(spec, cfg, samples, seed=4)
    assert x.size == samples and requested > 2 * samples and min(skips.values()) > 0
    assert np.array_equal(phi.c.view(np.int64), spec.phi_jet(x, y).c.view(np.int64))


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


@pytest.mark.parametrize("argv,message", [
    (("--surface", "scherk", "--n", "200", "--samples", "200"),
     "the conformal factor e^(2 Phi) underflows at (0.242846, -1.46015) for n = 200"),
    # e^(2 Phi) is subnormal there, so the x-block's inverse, and then R, overflow
    (("--surface", "bi_wave", "--n", "200"),
     "the conformal factor e^(2 Phi) underflows at (1.26537, 1.2707) for n = 200"),
    # R is finite there but its scale 1 + max|d2 g| + max|Gamma|^2 is not, so
    # |R| / scale would read 0 and pass
    (("--surface", "bi_wave", "--n", "100"),
     "the Ricci tensor overflows at (1.26537, 1.2707) for n = 100")])
def test_verify_past_the_float_range_names_point_and_n(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scherk_verdict_holds_up_to_n_161(capsys):
    # on the 100 default samples the README's range ends here: n = 161 passes,
    # and at n = 162 R leaves the float range while e^(2 Phi) is still in it
    code, rep, err = verify_report(capsys, "--surface", "scherk", "--n", "161")
    assert code == 0 and rep["pass"] is True and err == ""
    code, out, err = run(capsys, "verify", "--surface", "scherk", "--n", "162")
    assert (code, out, err) == (2, "", "error: the Ricci tensor overflows at (0.242846, -1.46015) for n = 162\n")


def test_verify_ricci_overflow_names_point_and_n(capsys, monkeypatch):
    # an R that overflows while e^(2 Phi) is in range is named as such
    engine = cli.curvature.ricci_arrays

    def overflowing(comp, d1, d2):
        ricci, scalar, denom = engine(comp, d1, d2)
        ricci.parts[1][3, 0, 0] = np.inf
        return ricci, scalar, denom

    monkeypatch.setattr(cli.curvature, "ricci_arrays", overflowing)
    code, rep, err = verify_report(capsys, "--surface", "scherk", "--n", "2", "--samples", "20")
    x, y = cli.draw_points(cli.surfaces.get("scherk"), AssemblyConfig(2, (1, 1)), 20, 42)[:2]
    assert code == 2 and rep is None
    assert err == f"error: the Ricci tensor overflows at ({x[3]:g}, {y[3]:g}) for n = 2\n"
