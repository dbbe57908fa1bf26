import json

import pytest

from contactfive.cli import build_parser, main


def run(args):
    return main(args)


def test_acs_check_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["acs-check", "--field", "sin-beta", "--samples", "200",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"]
    assert report["command"] == "acs-check"
    printed = capsys.readouterr().out
    assert json.loads(printed)["pass"]


def test_acs_check_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["acs-check", "--field", "sin-beta", "--samples", "100",
            "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_field_params_and_config(tmp_path):
    code = run(["acs-check", "--field", "sin-beta", "--field-params",
                '{"eps": 0.02, "delta0": 0.1}', "--samples", "50"])
    assert code == 0
    cfgfile = tmp_path / "field.json"
    cfgfile.write_text(json.dumps({"coeffs": {
        "sigma": "0", "beta": "0.01 * sin(x1) * y2", "gamma": "1",
        "delta": "0"}}))
    assert run(["acs-check", "--config", str(cfgfile),
                "--samples", "50"]) == 0


def test_bad_usage_exit_codes(tmp_path, capsys):
    assert run(["acs-check", "--field", "nonexistent"]) == 2
    assert run(["acs-check", "--field-params", "{not json"]) == 2
    assert run(["no-such-command"]) == 2
    missing = tmp_path / "missing.json"
    assert run(["acs-check", "--config", str(missing)]) == 2
    # field params that are not an object of numbers, or that the builtin
    # does not take, and a leaf of one disk are bad input too
    capsys.readouterr()
    for field, params in (("sin-beta", '{"foo": 1}'), ("sin-beta", "[1]"),
                          ("sin-beta", '{"eps": [1]}'),
                          ("standard", '{"eps": 0.1}')):
        assert run(["solve-disk", "--field", field, "--field-params", params,
                    "--grid", "17"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert run(["foliate", "--field", "standard", "--grid", "17",
                "--t-count", "1"]) == 2
    err = capsys.readouterr().err
    assert "t_count" in err and "Traceback" not in err


def test_solve_disk_command(tmp_path):
    out = tmp_path / "solve.json"
    code = run(["solve-disk", "--field", "sin-beta", "--grid", "33",
                "--save", str(tmp_path / "patch"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] and report["converged"]
    assert (tmp_path / "patch" / "patch.csv").exists()


def test_solve_disk_divergent_reports_reason(tmp_path, capsys):
    out = tmp_path / "div.json"
    code = run(["solve-disk", "--field", "sin-beta", "--field-params",
                '{"eps": 20}', "--grid", "33", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["pass"] is False and report["reason"]
    assert json.loads(out.read_text()) == report
    assert "Traceback" not in captured.err


def test_solve_disk_iterate_leaving_domain_reports_reason(capsys):
    # at eps = 30 the second iterate leaves the field's ball: a
    # divergence (exit 1), not bad input (exit 2)
    code = run(["solve-disk", "--field", "sin-beta", "--field-params",
                '{"eps": 30}', "--grid", "33"])
    assert code == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["pass"] is False and "domain" in report["reason"]
    assert "Traceback" not in captured.err


def test_verify_scenario_command(tmp_path):
    out = tmp_path / "s5.json"
    code = run(["verify-scenario", "--scenario", "s5", "--samples", "20",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_pass"] == 20


def test_leaf_of_command():
    code = run(["leaf-of", "--field", "standard", "--grid", "21",
                "--q", "0.4", "0.05", "-0.02", "0.3", "0.1"])
    assert code == 0


def test_foliate_and_intersect(tmp_path):
    code = run(["foliate", "--field", "standard", "--grid", "21",
                "--t-count", "3", "--t-max", "0.2",
                "--save", str(tmp_path / "leaf")])
    assert code == 0
    assert (tmp_path / "leaf" / "leaf.json").exists()
    code = run(["intersect", "--field", "standard", "--grid", "21",
                "--t-count", "3", "--t-max", "0.2",
                "--point", "0.1", "0.0", "0.0", "0.1", "0.0",
                "--direction", "1.0", "0.3", "0.1", "0.0"])
    assert code == 0


def test_version_and_help():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--version"])
    assert main(["--version"]) == 0
