"""Experiment drivers and the command line wrapper around them."""

import ast
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slowfast.errors import ConfigError
from slowfast.experiments import (
    MAX_X_GRID_NODES,
    _build_parser,
    _parse_pairs,
    _parse_x_grid,
    _validate_epsilons,
    cli_main,
    rerun_from_manifest,
    run_averaging_convergence,
    run_l2_failure,
)
from slowfast.simulate import SimConfig

from conftest import assert_no_children


# ---------------------------------------------------------------------------
# argument parsing helpers

def test_epsilon_ladder_validation():
    assert _validate_epsilons([np.inf, 0.1, 0.03]) == [np.inf, 0.1, 0.03]
    with pytest.raises(ConfigError):
        _validate_epsilons([])
    with pytest.raises(ConfigError):
        _validate_epsilons([-0.1])
    with pytest.raises(ConfigError, match="precede"):
        _validate_epsilons([0.1, np.inf])
    with pytest.raises(ConfigError, match="decreasing"):
        _validate_epsilons([0.03, 0.1])


def test_x_grid_parsing():
    grid = _parse_x_grid("0:1:0.25")
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    for bad in ("0:1", "1:0:0.1", "0:1:0.3", "0:1:-0.5"):
        with pytest.raises(ConfigError):
            _parse_x_grid(bad)


def test_x_grid_node_count_is_capped():
    assert _parse_x_grid(f"0:{MAX_X_GRID_NODES - 1}:1").size == MAX_X_GRID_NODES
    with pytest.raises(ConfigError, match="nodes"):
        _parse_x_grid(f"0:{MAX_X_GRID_NODES}:1")


@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "-1e308:1e308:1e308", "0:1:1e-300", "0:1:1e-12"])
def test_cli_x_grid_with_too_many_nodes_exits_3(capsys, grid):
    # each count overflows or would allocate far beyond memory; none may be built
    assert cli_main(["averaged", "--model", "ou-coupled", f"--x-grid={grid}"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and str(MAX_X_GRID_NODES) in err["message"]


def test_pair_parsing():
    assert _parse_pairs("0.5,0.3;0.1,0.0") == [(0.5, 0.3), (0.1, 0.0)]
    for bad in ("0.5", ";;", "0.5,0.3,0.1"):
        with pytest.raises(ConfigError):
            _parse_pairs(bad)


# ---------------------------------------------------------------------------
# drivers

def _tiny_config(**overrides):
    base = dict(
        epsilon=0.5, dt=0.01, horizon=0.25, n_paths=128, seed=7, x0=0.5, y0=1.0
    )
    base.update(overrides)
    return SimConfig(**base)


def test_run_averaging_convergence_small(ou):
    report = run_averaging_convergence(
        ou, [np.inf, 0.5], _tiny_config(x0=0.0, y0=0.0), functionals=True
    )
    assert report.model == "ou-coupled"
    assert report.epsilons == (np.inf, 0.5)
    assert len(report.w1_terminal) == 2
    assert all(v >= 0.0 for v in report.w1_terminal)
    assert report.noise_floor > 0.0
    assert set(report.functional_gaps) == {"sin", "cos", "clip-linear", "clip-square"}
    assert all(len(v) == 2 for v in report.functional_gaps.values())
    json.dumps(report.as_dict())  # inf must serialize as the string "inf"
    assert report.as_dict()["epsilons"][0] == "inf"


def test_convergence_rejects_degenerate_model(ou):
    from dataclasses import replace

    flat = replace(
        ou,
        name="flat-sigma",
        coefficients=replace(
            ou.coefficients,
            sigma=lambda x, y: 0.0,
        ),
        analytic=None,
    )
    with pytest.raises(ConfigError, match="slow-elliptic"):
        run_averaging_convergence(flat, [0.5], _tiny_config())


def test_run_l2_failure_small():
    report = run_l2_failure(_tiny_config(x0=0.0, y0=0.0, horizon=0.5, n_paths=256), [0.1])
    # sigma = y, sigmabar = 1 under N(0,1): E (y - 1)^2 = 2, scaled by the horizon
    assert report.predicted_limit == pytest.approx(1.0, abs=1e-6)
    assert len(report.mean_square_gap) == 1
    assert report.relative_error[0] < 0.5
    assert report.w1_terminal[0] >= 0.0
    assert report.noise_floor > 0.0


def test_l2_failure_rejects_inf():
    with pytest.raises(ConfigError, match="finite"):
        run_l2_failure(_tiny_config(), [np.inf, 0.1])


# ---------------------------------------------------------------------------
# command line

def test_cli_list_models_json(capsys):
    assert cli_main(["list-models"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == ["example21", "ou-coupled", "pure-fast-l2"]
    assert all({"name", "dim_slow", "dim_fast", "description"} <= set(r) for r in rows)


def test_cli_list_models_csv(capsys):
    assert cli_main(["list-models", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,dim_slow,dim_fast,description"
    assert len(lines) == 4


def test_python_m_entry_point_lists_models():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "slowfast", "list-models"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [r["name"] for r in json.loads(done.stdout)] == ["example21", "ou-coupled", "pure-fast-l2"]


_SCIPY_PROBE = """
import sys
import slowfast
from slowfast.experiments import cli_main
if sys.argv[1:] and cli_main(sys.argv[1:]) != 0:
    sys.exit("the command failed")
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["list-models"],
        ["l2fail", "--epsilons", "0.1,0.03", "--config", "CFG"],
        ["converge", "--model", "ou-coupled", "--epsilons", "0.1,0.03", "--config", "CFG"],
        ["stationary", "--model", "example21", "--x", "0.5"],
        ["averaged", "--model", "ou-coupled", "--x-grid=-1:1:0.25"],
        ["classify", "--model", "example21", "--x", "0.5"],
        ["probe", "--model", "example21", "--x0", "0.0"],
        ["distance", "--model", "example21", "--metric", "w1", "--x1", "0.1", "--x2", "0.0"],
        ["holder", "--model", "example21", "--metric", "tv", "--pairs", "0.3,0.0;0.1,0.0"],
        ["decay", "--model", "ou-coupled", "--x", "0", "--y0", "3", "--y-other=-1", "--times", "1,2", "--mode", "coupling",
         "--config", "PATHS"],
    ],
    ids=["import", "list-models", "l2fail", "converge", "stationary", "averaged", "classify", "probe", "distance-w1",
         "holder-tv", "decay-coupling"],
)
def test_plain_sums_never_load_scipy(tmp_path, argv):
    # scipy is imported only inside the compiled solvers: march's LAPACK
    # (decay --mode pde), the spectral gap, wbl's linear program and potential's quad
    files = {"CFG": '{"n_paths": 64, "horizon": 0.5}', "PATHS": '{"n_paths": 64}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv] + (["--out", str(tmp_path / "out.json")] if argv else [])
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *argv], cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _readme_commands():
    # every `slowfast ...` invocation the README shows, in a code block or inline
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.findall(r"^slowfast .*$", text, re.M) + re.findall(r"`(slowfast [^`]+)`", text)
    return list(dict.fromkeys(" ".join(line.split()) for line in found))


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_lines_parse(line):
    argv = shlex.split(line)[1:]
    try:
        _build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {line}")


def _key_value_rows(obj, prefix=""):
    # dotted-key flattening of a json payload, the documented csv layout
    if isinstance(obj, dict):
        return [row for k, v in obj.items() for row in _key_value_rows(v, f"{prefix}{k}.")]
    if isinstance(obj, list):
        return [row for i, v in enumerate(obj) for row in _key_value_rows(v, f"{prefix}{i}.")]
    return [f"{prefix[:-1]},{obj!r}" if isinstance(obj, float) else f"{prefix[:-1]},{obj}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--model", "ou-coupled", "--x", "0.0"],
        ["distance", "--model", "example21", "--metric", "tv", "--x1", "0.1", "--x2", "0.0"],
        ["holder", "--model", "ou-coupled", "--metric", "w1", "--pairs", "0.0,1.0;0.25,0.75"],
        ["probe", "--model", "example21", "--x0", "0.0"],
        ["converge", "--model", "ou-coupled", "--epsilons", "inf,0.5", "--functionals"],
        ["l2fail", "--epsilons", "0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_csv_report_flattens_the_json_payload(tmp_path, capsys, argv):
    if argv[0] in ("converge", "l2fail"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_paths": 64, "horizon": 0.2, "dt": 0.01, "x0": 0.0, "y0": 0.0}))
        argv = [*argv, "--config", str(cfg)]
    assert cli_main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert cli_main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    # json sorts its keys, the csv keeps the report's order
    assert sorted(lines[1:]) == sorted(_key_value_rows(payload))


@pytest.mark.parametrize(
    "argv, header, keys",
    [
        (["stationary", "--model", "example21", "--x", "0.5"], "y,density", ("grid", "values")),
        (["averaged", "--model", "ou-coupled", "--x-grid", "0:1:0.125"], "x,b_bar,a_bar,sigma_bar",
         ("x_grid", "b_bar", "a_bar", "sigma_bar")),
        (["decay", "--model", "ou-coupled", "--x", "0.0", "--y0", "3.0", "--times", "1,2,3",
          "--mode", "pde"], "t,value", ("times", "values")),
    ],
    ids=["stationary", "averaged", "decay-pde"],
)
def test_cli_csv_table_holds_the_json_arrays_bit_for_bit(capsys, argv, header, keys):
    assert cli_main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert cli_main([*argv, "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == header
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    for column, key in zip(table.T, keys, strict=True):
        np.testing.assert_array_equal(column, np.array(payload[key]))


def test_cli_classify_ou_far_from_zero(capsys):
    # the log shape rises by x^2 / 2 = 18 from y = 0 to the mode y = 6;
    # the ladder must not read that rise as divergence
    assert cli_main(["classify", "--model", "ou-coupled", "--x", "6"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["ergodic"], d["exp_ergodic"], d["strongly_ergodic"]) == ("true", "true", "false")


def test_cli_usage_error_exits_2(capsys):
    assert cli_main(["stationary", "--model", "ou-coupled"]) == 2  # missing --x
    assert cli_main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_numerical_error_exits_3_with_diagnostic(capsys):
    assert cli_main(["classify", "--model", "nope", "--x", "0.5"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownModelError"
    assert "nope" in err["message"]


def test_cli_bad_grid_exits_3(capsys):
    assert cli_main(["averaged", "--model", "ou-coupled", "--x-grid", "0:1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_cli_probe_past_the_slow_domain_exits_3(capsys):
    # the probe points x0 + delta leave example21's slow domain [0, 1]
    assert cli_main(["probe", "--model", "example21", "--x0", "1.0"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--model", "ou-coupled", "--epsilons", "0.1,abc"],
        ["averaged", "--model", "ou-coupled", "--x-grid", "0:1:x"],
        ["holder", "--model", "ou-coupled", "--metric", "tv", "--pairs", "0.1,abc"],
    ],
)
def test_cli_malformed_number_exits_3(capsys, argv):
    assert cli_main(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and argv[-1] in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["holder", "--model", "ou-coupled", "--metric", "w1", "--pairs", "0.0,1.0", "--lambda2", "inf"],
        ["holder", "--model", "ou-coupled", "--metric", "w1", "--pairs", "0.0,1.0", "--lambda2", "nan"],
        ["holder", "--model", "ou-coupled", "--metric", "w1", "--pairs", "0.0,1.0", "--k3", "inf"],
        ["decay", "--model", "ou-coupled", "--x", "0.0", "--y0", "1.0", "--times", "nan"],
        ["decay", "--model", "ou-coupled", "--x", "0.0", "--y0", "1.0", "--times", "1,nan"],
        ["decay", "--model", "ou-coupled", "--x", "0.0", "--y0", "1.0", "--times", "0.5,inf",
         "--mode", "coupling", "--y-other", "0.0"],
        ["averaged", "--model", "ou-coupled", "--x-grid", "0:nan:0.1"],
        ["averaged", "--model", "ou-coupled", "--x-grid", "0:inf:0.1"],
    ],
    ids=["lambda2-inf", "lambda2-nan", "k3-inf", "times-nan", "times-1,nan", "coupling-times-inf",
         "x-grid-nan", "x-grid-inf"],
)
def test_cli_non_finite_input_exits_3(capsys, argv):
    assert cli_main(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "finite" in err["message"]


def test_cli_averaged_example21_fine_grid(capsys):
    # a_bar = 2/x + 2(1 - x) reaches 8194 at the first node past the wall
    assert cli_main(["averaged", "--model", "example21", "--x-grid", "0:1:0.000244140625"]) == 0
    payload = json.loads(capsys.readouterr().out)
    x, b_bar = np.array(payload["x_grid"]), np.array(payload["b_bar"])
    assert x.size == 4097
    np.testing.assert_allclose(b_bar[1:], 2.0 - x[1:], rtol=0.0, atol=1e-12)
    assert b_bar[0] == 1.0  # the jump at the wall


def test_cli_config_file_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code = cli_main(
        ["converge", "--model", "ou-coupled", "--epsilons", "0.5", "--config", str(cfg)]
    )
    assert code == 3
    assert "bogus" in json.loads(capsys.readouterr().err)["message"]


def test_cli_decay_coupling_config_holds_only_n_paths(tmp_path, capsys):
    argv = ["decay", "--model", "ou-coupled", "--mode", "coupling", "--x", "0.0",
            "--y0", "1.0", "--y-other", "0.0", "--times", "0.5,1.0"]
    cfg = tmp_path / "cfg.json"
    for bad, word in (({"n_paths": 8, "seed": 3}, "seed"), ([8], "object")):
        cfg.write_text(json.dumps(bad))
        assert cli_main([*argv, "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and word in err["message"]
    cfg.write_text(json.dumps({"n_paths": 8}))
    assert cli_main([*argv, "--config", str(cfg)]) == 0
    capsys.readouterr()


_COUPLING = ["decay", "--model", "ou-coupled", "--mode", "coupling", "--x", "0.0",
             "--y0", "1.0", "--y-other", "0.0", "--times", "0.5,1.0"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["converge", "--model", "ou-coupled", "--seed", "-1"], None),
        (["l2fail", "--seed", "-1"], None),
        ([*_COUPLING, "--seed", "-3"], None),
        (["converge", "--model", "ou-coupled"], {"n_paths": "abc"}),
        (["l2fail"], {"dt": None}),
        (["converge", "--model", "ou-coupled"], {"n_paths": 2.5}),
        (_COUPLING, {"n_paths": "abc"}),
        (["l2fail"], {"epsilon": "0.1"}),
        (["l2fail"], {"stride": True}),
    ],
    ids=["converge-seed", "l2fail-seed", "coupling-seed", "n_paths-str", "dt-null", "n_paths-float",
         "coupling-n_paths-str", "epsilon-str", "stride-bool"],
)
def test_cli_bad_seed_or_config_value_exits_3(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    assert cli_main(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert ("seed" if config is None else next(iter(config))) in err["message"]


@pytest.mark.parametrize("content", [None, '{"n_paths": 8'])
def test_cli_config_file_unreadable_exits_3(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code = cli_main(
        ["converge", "--model", "ou-coupled", "--epsilons", "0.5", "--config", str(cfg)]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and str(cfg) in err["message"]


def test_cli_config_only_where_it_is_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 8}))
    assert cli_main(["classify", "--model", "ou-coupled", "--x", "0.5", "--config", str(cfg)]) == 2
    assert "--config" in capsys.readouterr().err


def test_cli_decay_pde_rejects_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 8}))
    argv = ["decay", "--model", "ou-coupled", "--x", "0.0", "--y0", "1.0", "--times", "0.5,1.0"]
    assert cli_main([*argv, "--config", str(cfg)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_cli_artifact_and_manifest(tmp_path):
    out = tmp_path / "rho.csv"
    code = cli_main(
        ["stationary", "--model", "ou-coupled", "--x", "0.0",
         "--out", str(out), "--format", "csv", "--seed", "3"]
    )
    assert code == 0
    assert out.read_text().startswith("y,density")
    manifest = json.loads((tmp_path / "rho.csv.manifest.json").read_text())
    assert manifest["command"] == "stationary"
    assert manifest["seed"] == 3
    assert manifest["artifact_version"] == "1"
    assert manifest["params"]["model"] == "ou-coupled"
    assert manifest["params"]["x"] == 0.0
    assert "--out" in manifest["params"]["argv"]


def test_cli_decay_without_a_fit_reports_null_rate(capsys):
    # the README example: one value inside the fit window, so no rate at all rather than 0
    assert cli_main(["decay", "--model", "example21", "--x", "0.5", "--y0", "3", "--times", "1,37.2"]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    assert (fit["rate"], fit["r_squared"]) == (None, None)
    assert "fit window" in fit["reason"]


def test_cli_l2fail_rejects_other_model(capsys):
    code = cli_main(["l2fail", "--model", "ou-coupled", "--epsilons", "0.1"])
    assert code == 3
    assert "pure-fast-l2" in json.loads(capsys.readouterr().err)["message"]


def test_cli_converge_needs_finite_anchor(capsys):
    code = cli_main(["converge", "--model", "ou-coupled", "--epsilons", "inf"])
    assert code == 3
    capsys.readouterr()


def test_rerun_from_manifest_is_bit_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 64, "horizon": 0.2, "dt": 0.01, "x0": 0.0, "y0": 0.0}))
    first = tmp_path / "conv.json"
    argv = [
        "converge", "--model", "ou-coupled", "--epsilons", "0.5,0.25",
        "--config", str(cfg), "--seed", "11", "--out", str(first), "--workers", "1",
    ]
    assert cli_main(argv) == 0

    second = tmp_path / "conv-rerun.json"
    code = rerun_from_manifest(str(first) + ".manifest.json", out=str(second), workers=3)
    assert code == 0
    assert second.read_bytes() == first.read_bytes()
    # the rerun's own manifest records the overridden argv
    manifest = json.loads((tmp_path / "conv-rerun.json.manifest.json").read_text())
    assert str(second) in manifest["params"]["argv"]
    assert manifest["params"]["workers"] == 3


@pytest.mark.parametrize("command", ["l2fail", "converge"])
def test_manifest_with_default_chunks_replays_byte_for_byte(tmp_path, command):
    # the default chunk_size is null, whether the config file names it or not
    model = [] if command == "l2fail" else ["--model", "ou-coupled"]
    for name, fields in (("named", {"chunk_size": None}), ("unnamed", {})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n_paths": 40, "horizon": 0.2, "dt": 0.01, "x0": 0.0, "y0": 0.0, **fields}))
        out = tmp_path / f"{command}-{name}.json"
        argv = [command, *model, "--epsilons", "0.5,0.25", "--config", str(cfg), "--seed", "4", "--out", str(out)]
        assert cli_main(argv) == 0
        manifest_path = tmp_path / f"{out.name}.manifest.json"
        first = out.read_bytes(), manifest_path.read_bytes()
        assert json.loads(first[1])["params"]["sim_config"]["chunk_size"] is None
        assert rerun_from_manifest(str(manifest_path)) == 0
        assert (out.read_bytes(), manifest_path.read_bytes()) == first


@pytest.mark.parametrize("x0", [0.5, 0.05])
def test_example21_ladder_rises_away_from_the_averaged_law(example21, x0):
    # the README's unexplained ladder at a small size: W1 grows from the frozen
    # surrogate down to epsilon = 0.01, by several noise floors
    cfg = SimConfig(epsilon=0.01, dt=0.01, horizon=1.0, n_paths=2000, seed=0, x0=x0)
    report = run_averaging_convergence(example21, [np.inf, 0.1, 0.01], cfg)
    frozen, mid, small = report.w1_terminal
    assert frozen < mid < small
    assert small - frozen > 4 * report.noise_floor


@pytest.mark.parametrize("command", ["l2fail", "converge", "decay"])
def test_cli_artifacts_do_not_depend_on_workers(tmp_path, command, forks):
    # 40 paths in chunks of 16: the forked children run three chunks, the last
    # one short; decay's config holds only n_paths, so it runs default chunks
    cfg = tmp_path / "cfg.json"
    if command == "decay":
        cfg.write_text(json.dumps({"n_paths": 40}))
        args = ["--model", "ou-coupled", "--x", "0", "--y0", "3", "--y-other", "-1", "--times", "1,2",
                "--mode", "coupling"]
    else:
        cfg.write_text(json.dumps({"n_paths": 40, "chunk_size": 16, "horizon": 0.2, "dt": 0.01, "x0": 0.0,
                                   "y0": 0.0}))
        args = ([] if command == "l2fail" else ["--model", "ou-coupled"]) + ["--epsilons", "0.5,0.25"]
    artifacts, manifests = [], []
    for workers in (1, 2, 3):
        out = tmp_path / f"{command}-{workers}.json"
        argv = [command, *args, "--config", str(cfg), "--seed", "4", "--out", str(out), "--workers", str(workers)]
        assert cli_main(argv) == 0
        assert_no_children()
        artifacts.append(out.read_bytes())
        manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
        assert manifest["params"]["workers"] == workers
        manifest["params"].pop("workers")
        manifest["params"].pop("argv")
        manifests.append(manifest)
    assert artifacts == [artifacts[0]] * 3
    assert manifests == [manifests[0]] * 3


@pytest.mark.parametrize("workers", ["0", "-1", "1.5", "two"])
@pytest.mark.parametrize("command", [["l2fail"], ["stationary", "--model", "ou-coupled", "--x", "0"]],
                         ids=["l2fail", "stationary"])
def test_cli_bad_worker_count_exits_3(capsys, command, workers):
    assert cli_main([*command, f"--workers={workers}"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "workers" in err["message"]


def test_library_runners_reject_a_bad_worker_count(ou):
    cfg = SimConfig(epsilon=0.5, dt=0.01, horizon=0.1, n_paths=8, seed=0)
    with pytest.raises(ConfigError, match="workers"):
        run_averaging_convergence(ou, [0.5], cfg, workers=0)
    with pytest.raises(ConfigError, match="workers"):
        run_l2_failure(cfg, [0.5], workers=1.5)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_cli_l2fail_blowup_diagnostic_does_not_depend_on_workers(tmp_path, capsys, monkeypatch, forks):
    # pure-fast-l2 with the slow drift x^3: on this config paths 0-7 survive and
    # path 12, in the second chunk, is the first to blow up
    import slowfast.experiments as experiments

    base = experiments.get_builtin("pure-fast-l2")
    cubic = replace(base, coefficients=replace(base.coefficients, b=lambda x, y: x ** 3),
                    analytic=replace(base.analytic, averaged_drift=lambda x: np.asarray(x, float) ** 3))
    monkeypatch.setattr(experiments, "get_builtin", lambda name: cubic)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 24, "chunk_size": 8, "horizon": 1.0, "dt": 0.01, "x0": 0.0, "y0": 0.0}))
    diagnostics = []
    for workers in (1, 2, 3):
        argv = ["l2fail", "--epsilons", "0.1", "--config", str(cfg), "--seed", "5", "--workers", str(workers)]
        assert cli_main(argv) == 3
        diagnostics.append(capsys.readouterr().err)
        assert_no_children()
    assert json.loads(diagnostics[0])["error"] == "BlowUpError"
    assert json.loads(diagnostics[0])["path_index"] == 12
    assert diagnostics == [diagnostics[0]] * 3


def _renders_or_touches_files(node):
    """``import json``, ``open(...)``, ``x.open(...)``, ``np.save*(...)`` or ``np.load*(...)``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "json" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "json"
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id == "open"
    if not isinstance(f, ast.Attribute):
        return False
    numpy_io = isinstance(f.value, ast.Name) and f.value.id == "np" and f.attr.startswith(("save", "load"))
    return f.attr == "open" or numpy_io


def test_only_the_cli_module_renders_output_or_touches_files():
    # artifacts are rendered and written by experiments alone; every other
    # module returns plain data
    package = Path(__file__).resolve().parents[1] / "src" / "slowfast"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "experiments.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _renders_or_touches_files(node)
    ]
    assert offenders == []
