import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from geokin import budgets, cli, fields, kinetics
from geokin.identities import LawReport
from geokin.kinetics import read_grid, read_particles
from geokin.chart import Chart, ChartKind
from geokin.poly import Poly

from helpers import traced_peak


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def simulate_config(tmp_path, **overrides):
    cfg = {
        "chart": {"kind": "contact", "n": 1},
        "task": "simulate",
        "hamiltonian": "z",
        "initial": {"point": [0.0, 1.0, 1.0]},
        "time": {"t_final": 1.0, "dt": 0.001},
        "output": {"trajectory": str(tmp_path / "traj.csv")},
    }
    cfg.update(overrides)
    return cfg


def test_identity_subcommand_all_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main([
        "identity", "--chart", "cocontact", "--n", "1",
        "--trials", "2", "--output", str(out),
    ])
    assert code == 0
    assert "all pass" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["chart"] == {"kind": "cocontact", "n": 1}
    assert payload["passed"] is True
    names = [entry["law"] for entry in payload["laws"]]
    assert len(names) == len(set(names))
    # the full field catalog appears row by row
    assert sum(1 for n in names if n.endswith("/contractions")) == 9
    assert sum(1 for n in names if n.endswith("/conformal")) == 9


@pytest.mark.parametrize("n", [0, 17, 10 ** 400], ids=["zero", "past-bound", "huge"])
def test_identity_rejects_bad_n(capsys, n):
    assert cli.main(["identity", "--chart", "contact", "--n", str(n)]) == 2
    assert "config error at --n: must be between 1 and 16" in capsys.readouterr().err


def test_identity_rejects_zero_trials(capsys):
    # the flag is checked by the config's `$.trials` row, as identity-check reads it
    assert cli.main(["identity", "--chart", "contact", "--trials", "0"]) == 2
    assert capsys.readouterr().err == (
        f"config error at --trials: must be between 1 and {budgets.MAX_TRIALS}\n")


@pytest.mark.parametrize("seed", ["-3", "-1"])
def test_identity_rejects_a_negative_seed(capsys, seed):
    # the flag is checked by the config's `$.seed` row
    assert cli.main(["identity", "--chart", "symplectic", "--seed", seed]) == 2
    assert capsys.readouterr().err == "config error at --seed: must be non-negative\n"


def test_identity_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_identity_suite",
        lambda chart, seed=0, trials=20: [LawReport("demo/broken", "fail", "F = q1")],
    )
    out = tmp_path / "report.json"
    code = cli.main(["identity", "--chart", "symplectic", "--n", "1", "--output", str(out)])
    assert code == 1
    assert "FAIL demo/broken" in capsys.readouterr().out
    assert json.loads(out.read_text())["passed"] is False


def test_validate_echoes_normalized_hamiltonian(tmp_path, capsys):
    cfg = simulate_config(tmp_path, hamiltonian="z + p1^2/2")
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ok"
    assert "hamiltonian: 1/2*p1^2 + z" in out


def test_validate_names_unknown_variable_and_chart(tmp_path, capsys):
    cfg = simulate_config(tmp_path, chart={"kind": "cosymplectic", "n": 1})
    cfg["hamiltonian"] = "z + p1"
    cfg["initial"] = {"point": [0.0, 0.0, 0.0]}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "$.hamiltonian" in err
    assert "'z'" in err
    assert "cosymplectic" in err


def test_validate_requires_t_final(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    del cfg["time"]["t_final"]
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "$.time.t_final" in capsys.readouterr().err


def test_unknown_keys_are_config_errors(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    cfg["tim"] = {}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "$.tim" in capsys.readouterr().err


def test_strict_family_with_z_hamiltonian_is_config_error(tmp_path, capsys):
    cfg = simulate_config(tmp_path, field={"family": "strict"})
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "$.hamiltonian" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -3])
def test_nonpositive_threads_are_config_errors(tmp_path, capsys, threads):
    cfg = task_config(tmp_path, "kinetic-particle", threads=threads)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "config error at $.threads:" in capsys.readouterr().err


def test_threads_are_checked_then_ignored(tmp_path, capsys):
    # the push runs on the calling thread: any positive count gives the same bytes
    def run(threads):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        cfg = task_config(tmp_path, "kinetic-particle", threads=threads, particles=2_000,
                          output={"grid": str(out / "g.grid"),
                                  "particles": str(out / "p.csv")})
        code = cli.main(["run", write_config(tmp_path, cfg)])
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        return code, stdout, (out / "g.grid").read_bytes(), (out / "p.csv").read_bytes()

    one = run(1)
    assert one[0] == 0 and "kinetic-particle:" in one[1]
    assert run(4) == one
    cfg = task_config(tmp_path, "kinetic-particle", threads=0)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "config error at $.threads:" in capsys.readouterr().err


def _set(section, key, value):
    return lambda cfg: cfg[section].update({key: value})


@pytest.mark.parametrize("path, mutate", [
    ("$.output.trajectory", _set("output", "trajectory", 5)),
    ("$.time.t_final", _set("time", "t_final", float("inf"))),
    ("$.time.dt", _set("time", "dt", 10 ** 400)),
    ("$.initial.point", _set("initial", "point", [0.0, float("inf"), 1.0])),
    ("$.initial.point", _set("initial", "point", [0.0, True, 1.0])),
    ("$.hamiltonian", lambda cfg: cfg.update(hamiltonian="q1^30")),
    ("$.hamiltonian", lambda cfg: cfg.update(hamiltonian="2^2000*q1")),
    ("$.hamiltonian", lambda cfg: cfg.update(hamiltonian="2^5000*q1")),
    ("$.hamiltonian", lambda cfg: cfg.update(hamiltonian="q1^\u00b2")),
    ("$.hamiltonian", lambda cfg: cfg.update(hamiltonian="q1^" + "1" * 5000)),
    ("$.particles", lambda cfg: cfg.update(particles=1500.0)),  # every task type-checks it
    ("$.time.rel_tol", _set("time", "rel_tol", -1e-8)),
    ("$.time.abs_tol", _set("time", "abs_tol", -1e-10)),
    ("$.chart.n", _set("chart", "n", 17)),
    ("$.chart.n", _set("chart", "n", 10 ** 400)),
], ids=["trajectory-int", "t-final-inf", "dt-huge-int", "point-inf", "point-bool",
        "degree-overflow", "coefficient-overflow", "constant-power", "exponent-superscript",
        "exponent-5000-digits", "particles-float",
        "rel-tol-negative", "abs-tol-negative", "n-past-bound", "n-huge"])
def test_boundary_faults_are_config_errors(tmp_path, capsys, path, mutate):
    cfg = simulate_config(tmp_path)
    mutate(cfg)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("task, path, value", [
    ("kinetic-grid", "$.time.cfl", -0.5),
    ("identity-check", "$.seed", -1),
], ids=["cfl-negative", "seed-negative"])
def test_boundary_faults_of_the_tasks_that_read_them_are_config_errors(tmp_path, capsys, task,
                                                                       path, value):
    cfg = task_config(tmp_path, task)
    set_path(cfg, path, value)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scenario.json"]  # nothing written


def test_a_json_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.load raises a plain ValueError for it, not a JSONDecodeError
    path = tmp_path / "scenario.json"
    path.write_text('{"chart": ' + "9" * 5000 + "}")
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at $: invalid JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1


@pytest.mark.parametrize("kind, field, hamiltonian", [
    ("contact", {}, "q1^23*z"),
    ("cosymplectic", {"gauge": "gradH"}, "t^24"),
    ("cocontact", {"family": "energy", "gauge": "gradH"}, "p1^23*t"),
], ids=["contact", "cosymplectic-gradH", "cocontact-energy-gradH"])
def test_flow_diagnostics_past_the_degree_cap_are_config_errors(tmp_path, capsys, kind,
                                                                field, hamiltonian):
    # the field fits under the cap but X(H) and the divergence do not
    chart = Chart(ChartKind(kind), 1)
    cfg = simulate_config(tmp_path, chart={"kind": kind, "n": 1}, field=field,
                          hamiltonian=hamiltonian, initial={"point": [0.1] * chart.dim})
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 2
        assert "config error at $.hamiltonian: product term degree" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()
    # kinetic tasks build no flow diagnostics, so the same Hamiltonian stays valid there
    cfg.update(task="kinetic-grid", field={}, initial={
        "density": "1", "grid": {"axes": [{"lo": -1, "hi": 1, "size": 4}] * chart.dim}})
    cfg["output"] = {"grid": str(tmp_path / "g.txt")}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0


def test_degree_overflow_during_a_run_exits_1(tmp_path, capsys):
    cfg = {
        "chart": {"kind": "contact", "n": 1},
        "task": "momentum-check",
        "hamiltonian": "q1^20*z",
        "initial": {"one_form": ["q1^5", "p1", "z"]},
        "output": {"report": str(tmp_path / "mom.txt")},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == 0
    capsys.readouterr()
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: product term degree 25 exceeds cap 24\n"


@pytest.mark.parametrize("path, power", [("$.hamiltonian", 3), ("$.hamiltonian", 24),
                                         ("$.initial.density", 24)])
def test_exact_products_past_the_pair_budget_are_config_errors(tmp_path, capsys, path, power):
    # the sum of every coordinate of the widest chart, cubed, has 7140 terms, and
    # its flow diagnostics multiply 595 of them by 7140; to the 24th, the power's
    # own squarings pass the budget.  Without it, validate took 15 s and 350 MiB.
    chart = Chart(ChartKind.COCONTACT, 16)
    big = f"({' + '.join(chart.coord_names)})^{power}"
    initial = {"point": [0.1] * chart.dim}
    if path == "$.hamiltonian":
        cfg = simulate_config(tmp_path, chart={"kind": "cocontact", "n": 16}, hamiltonian=big,
                              initial=initial)
    else:
        cfg = simulate_config(tmp_path, chart={"kind": "cocontact", "n": 16},
                              hamiltonian="p1^2/2", initial={**initial, "density": big})
    config = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        start = time.perf_counter()
        assert cli.main([command, config]) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith(f"config error at {path}: exact products would visit ")
        assert err.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("path", ["$.hamiltonian", "$.initial.density",
                                  "$.initial.one_form[1]"])
def test_deeply_nested_parentheses_are_config_errors(tmp_path, capsys, path):
    deep = "(" * 10 ** 5 + "q1" + ")" * 10 ** 5
    if path == "$.hamiltonian":
        cfg = simulate_config(tmp_path, hamiltonian=deep)
    elif path == "$.initial.density":
        cfg = _contact_grid_config(tmp_path)
        cfg["initial"]["density"] = deep
    else:
        cfg = {"chart": {"kind": "contact", "n": 1}, "task": "momentum-check",
               "hamiltonian": "p1^2/2 + z", "initial": {"one_form": ["p1*z", deep, "q1*p1"]},
               "output": {"report": str(tmp_path / "mom.txt")}}
    config = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        start = time.perf_counter()
        assert cli.main([command, config]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"config error at {path}: parentheses nested deeper than 100 levels (at offset 100) "
            "on the contact chart\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


def test_deeply_nested_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"chart": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}")
    for command in ("validate", "run"):
        start = time.perf_counter()
        assert cli.main([command, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error at $: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1


@pytest.mark.parametrize("raw", [b"\xff\xfe\x00x", b'{"task": "validate", "chart": "\xc3("}'],
                         ids=["leading", "inside-a-string"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, raw):
    path = tmp_path / "scenario.json"
    path.write_bytes(raw)
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at $: config is not UTF-8: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def test_chart_n_at_the_bound_is_valid(tmp_path, capsys):
    cfg = {"chart": {"kind": "cocontact", "n": 16}, "task": "identity-check",
           "output": {"report": str(tmp_path / "report.json")}}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    assert "chart: cocontact n=16" in capsys.readouterr().out


def test_run_simulate_matches_exponential_decay(tmp_path):
    path = write_config(tmp_path, simulate_config(tmp_path))
    assert cli.main(["run", path]) == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "s,q1,p1,z,H,pred_dHds,div"
    final = lines[-1].split(",")
    assert abs(float(final[2]) - math.exp(-1.0)) < 1e-6


def test_run_outputs_are_byte_identical(tmp_path):
    path = write_config(tmp_path, simulate_config(tmp_path))
    assert cli.main(["run", path]) == 0
    first = (tmp_path / "traj.csv").read_bytes()
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "traj.csv").read_bytes() == first


def test_run_blowup_exits_1(tmp_path, capsys):
    cfg = {
        "chart": {"kind": "symplectic", "n": 1},
        "task": "simulate",
        "hamiltonian": "q1^3*p1",
        "initial": {"point": [1.0, 0.2]},
        "time": {"t_final": 2.0, "dt": 0.001},
        "output": {"trajectory": str(tmp_path / "t.csv")},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_momentum_check_random_pairs(tmp_path, capsys):
    cfg = {
        "chart": {"kind": "cocontact", "n": 1},
        "task": "momentum-check",
        "seed": 42,
        "output": {"report": str(tmp_path / "mom.txt")},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 0
    report = (tmp_path / "mom.txt").read_text()
    assert "residual: 0" in report
    assert "status: PASS" in report
    assert "seed: 42" in report
    first = (tmp_path / "mom.txt").read_bytes()
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "mom.txt").read_bytes() == first


def test_momentum_check_explicit_pair(tmp_path):
    cfg = {
        "chart": {"kind": "contact", "n": 1},
        "task": "momentum-check",
        "hamiltonian": "p1^2/2 + z",
        "initial": {"one_form": ["p1*z", "q1^2", "q1*p1"]},
        "output": {"report": str(tmp_path / "mom.txt")},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    report = (tmp_path / "mom.txt").read_text()
    assert "pairs: 1" in report
    assert "status: PASS" in report


def test_kinetic_grid_snapshots(tmp_path):
    outs = [str(tmp_path / "a.grid"), str(tmp_path / "b.grid")]
    cfg = {
        "chart": {"kind": "contact", "n": 1},
        "task": "kinetic-grid",
        "hamiltonian": "z",
        "initial": {
            "grid": {"axes": [
                {"lo": -0.5, "hi": 0.5, "size": 1},
                {"lo": -2.0, "hi": 2.0, "size": 64},
                {"lo": -2.0, "hi": 2.0, "size": 64},
            ]},
            "density": "p1^2 + z^2",
        },
        "time": {"snapshots": [0.1, 0.2]},
        "output": {"grid": outs},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    early = read_grid(outs[0])
    late = read_grid(outs[1])
    assert early.chart == Chart(ChartKind.CONTACT, 1)
    # the flow of H = z dilates mass at a fixed exponential rate
    assert late.total_mass() > early.total_mass() > 0


def test_kinetic_grid_snapshot_output_mismatch(tmp_path, capsys):
    cfg = {
        "chart": {"kind": "contact", "n": 1},
        "task": "kinetic-grid",
        "hamiltonian": "z",
        "initial": {
            "grid": {"axes": [
                {"lo": -0.5, "hi": 0.5, "size": 1},
                {"lo": -2.0, "hi": 2.0, "size": 64},
                {"lo": -2.0, "hi": 2.0, "size": 64},
            ]},
            "density": "p1^2",
        },
        "time": {"snapshots": [0.1, 0.2]},
        "output": {"grid": str(tmp_path / "only.grid")},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "$.output.grid" in capsys.readouterr().err


def test_kinetic_particle_run(tmp_path):
    cfg = {
        "chart": {"kind": "symplectic", "n": 1},
        "task": "kinetic-particle",
        "hamiltonian": "p1^2/2",
        "particles": 2000,
        "seed": 7,
        "initial": {
            "grid": {"axes": [
                {"lo": -3.0, "hi": 3.0, "size": 32},
                {"lo": -2.0, "hi": 2.0, "size": 32},
            ]},
            "density": "q1^2*p1^2",
        },
        "time": {"t_final": 0.2, "dt": 0.01},
        "output": {
            "grid": str(tmp_path / "dep.grid"),
            "particles": str(tmp_path / "ens.csv"),
        },
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 0
    deposited = read_grid(str(tmp_path / "dep.grid"))
    assert deposited.total_mass() > 0
    ensemble = read_particles(Chart(ChartKind.SYMPLECTIC, 1), str(tmp_path / "ens.csv"))
    assert len(ensemble.columns) == 2
    first = (tmp_path / "dep.grid").read_bytes()
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "dep.grid").read_bytes() == first


def test_kinetic_particle_reports_the_seeded_count(tmp_path, capsys):
    # 1000 requested on two active axes seed a 32 x 32 lattice: 1024 particles,
    # survivors in the CSV plus the escaped ones
    cfg = {
        "chart": {"kind": "symplectic", "n": 1},
        "task": "kinetic-particle",
        "hamiltonian": "p1^2/2",
        "particles": 1000,
        "seed": 3,
        "initial": {
            "grid": {"axes": [
                {"lo": -1.0, "hi": 1.0, "size": 32},
                {"lo": -2.0, "hi": 2.0, "size": 32},
            ]},
            "density": "1 + q1^2",
        },
        "time": {"t_final": 0.5, "dt": 0.05},
        "output": {
            "grid": str(tmp_path / "dep.grid"),
            "particles": str(tmp_path / "ens.csv"),
        },
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert "kinetic-particle: 1024 particles to s=0.5;" in out
    escaped = int(out.split("escaped ")[1].split()[0])
    ensemble = read_particles(Chart(ChartKind.SYMPLECTIC, 1), str(tmp_path / "ens.csv"))
    assert escaped > 0
    assert len(ensemble.weights) + escaped == 1024


def test_task_override_flag(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    cfg["output"]["report"] = str(tmp_path / "report.json")
    cfg["trials"] = 2
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--task", "identity-check"]) == 0
    assert "identity-check contact n=1" in capsys.readouterr().out


def test_grid_resolution_guard_surfaces_as_runtime_error(tmp_path, capsys):
    cfg = {
        "chart": {"kind": "symplectic", "n": 1},
        "task": "kinetic-grid",
        "hamiltonian": "p1^2/2",
        "initial": {
            "grid": {"axes": [
                {"lo": -2.0, "hi": 2.0, "size": 16},
                {"lo": -2.0, "hi": 2.0, "size": 16},
            ]},
            "density": "q1^2",
        },
        "time": {"t_final": 0.1},
        "output": {"grid": str(tmp_path / "g.grid")},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def _kinetic_config(tmp_path, task, hamiltonian, t_final, dt):
    return {
        "chart": {"kind": "symplectic", "n": 1},
        "task": task,
        "hamiltonian": hamiltonian,
        "particles": 1000,
        "initial": {
            "grid": {"axes": [{"lo": -3.0, "hi": 3.0, "size": 32},
                              {"lo": -2.0, "hi": 2.0, "size": 32}]},
            "density": "q1^2*p1^2",
        },
        "time": {"t_final": t_final, "dt": dt},
        "output": {"grid": str(tmp_path / "g.grid")},
    }


@pytest.mark.parametrize("task", ["simulate", "kinetic-grid", "kinetic-particle"])
def test_derived_coefficients_outside_float_range_are_config_errors(tmp_path, capsys, task):
    # 1.7e308 fits a float, but the field's 2 * 1.7e308 does not
    H = "17" + "0" * 307 + "*q1^2 + p1^2/2"
    if task == "simulate":
        cfg = simulate_config(tmp_path, chart={"kind": "symplectic", "n": 1}, hamiltonian=H,
                              initial={"point": [0.1, 0.2]})
    else:
        cfg = _kinetic_config(tmp_path, task, H, 0.1, 0.01)
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert err == "config error at $.hamiltonian: a derived coefficient lies outside float range\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


@pytest.mark.parametrize("task", ["kinetic-grid", "kinetic-particle"])
def test_kinetic_runs_past_the_step_budget_are_refused_before_stepping(tmp_path, capsys,
                                                                        monkeypatch, task):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(kinetics, "rk4_stepper", lambda n: no_step)  # the particle push
    monkeypatch.setattr(kinetics, "_ssp_rk3_step", no_step)  # the grid step
    path = write_config(tmp_path, _kinetic_config(tmp_path, task, "p1^2/2", 1e9, 0.01))
    assert cli.main(["run", path]) == 1
    assert capsys.readouterr().err == (
        "error: t_final/dt = 1e+11 steps exceed the budget of 2000000\n")
    assert not (tmp_path / "g.grid").exists()


def test_a_cfl_limit_that_underflows_to_zero_meets_the_step_budget(tmp_path, capsys):
    # speeds near 1e301 per cell make the limit 1e-300 / 1e302, which is 0.0
    cfg = _kinetic_config(tmp_path, "kinetic-grid", "10^300*(p1^2 + q1^2)", 0.04, None)
    cfg["time"] = {"t_final": 0.04, "cfl": 1e-300}
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "error: t_final/dt = inf steps exceed the budget of 2000000\n"


def test_a_late_snapshot_past_the_step_budget_is_refused_before_stepping(tmp_path, capsys,
                                                                         monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(kinetics, "_ssp_rk3_step", no_step)
    cfg = _kinetic_config(tmp_path, "kinetic-grid", "p1^2/2", None, 0.01)
    outs = [str(tmp_path / f"snap{k}.grid") for k in range(3)]
    cfg["time"] = {"snapshots": [0.02, 0.04, 1e9], "dt": 0.01}
    cfg["output"] = {"grid": outs}
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: t_final/dt = 1e+11 steps exceed the budget of 2000000\n")
    assert not any(os.path.exists(out) for out in outs)


@pytest.mark.parametrize("task, size, particles, t_final, dt, message", [
    # 2 500 000 particles (1581^2 seeded) x 2 000 000 steps: days of pushing
    ("kinetic-particle", 32, 2_500_000, 2000.0, 0.001,
     "2499561 seeded particles x 2000000 steps exceed the work budget of 1000000000"),
    # 128^2 cells (the benchmark's largest grid) x 2 000 000 steps: hours of stepping
    ("kinetic-grid", 128, 1000, 2.0, 1e-6,
     "16384 cells x 2000000 steps exceed the work budget of 1000000000"),
])
def test_kinetic_runs_past_the_work_budget_are_refused_before_stepping(
        tmp_path, capsys, monkeypatch, task, size, particles, t_final, dt, message):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(kinetics, "rk4_stepper", lambda n: no_step)  # the particle push
    monkeypatch.setattr(kinetics, "_ssp_rk3_step", no_step)  # the grid step
    cfg = _kinetic_config(tmp_path, task, "p1^2/2", t_final, dt)
    cfg["particles"] = particles
    cfg["initial"]["grid"]["axes"] = [{"lo": -2.0, "hi": 2.0, "size": size}] * 2
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == 0  # within every config budget
    capsys.readouterr()
    rc, peak = traced_peak(lambda: cli.main(["run", path]))
    assert rc == 1
    assert peak < 4 << 20  # the particles were never seeded
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.grid").exists()


def test_a_grid_run_past_the_work_budget_is_refused_before_stepping(tmp_path, capsys,
                                                                    monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(kinetics, "_ssp_rk3_step", no_step)
    # 1000^2 cells x 2 000 000 steps: about 19 h at the measured grid rate
    cfg = _kinetic_config(tmp_path, "kinetic-grid", "p1^2/2", 2.0, 1e-6)
    cfg["initial"]["grid"]["axes"] = [{"lo": -2.0, "hi": 2.0, "size": 1000}] * 2
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == 0
    capsys.readouterr()
    rc, peak = traced_peak(lambda: cli.main(["run", path]))
    assert rc == 1
    # refused before the initial density, the cell centers, the velocities
    # and the grid step's workspace: not one grid of 1000^2 float64 values
    assert peak < 8 * 1000 ** 2
    assert capsys.readouterr().err == (
        "error: 1000000 cells x 2000000 steps exceed the work budget of 1000000000\n")
    assert not (tmp_path / "g.grid").exists()


def test_grid_snapshots_past_the_value_budget_are_refused_without_allocating(tmp_path, capsys):
    # 1000^2 cells x 2 coordinates fit the grid budget; three snapshots of them do not
    cfg = _kinetic_config(tmp_path, "kinetic-grid", "p1^2/2", None, 0.01)
    cfg["initial"]["grid"]["axes"] = [{"lo": -2.0, "hi": 2.0, "size": 1000}] * 2
    cfg["time"] = {"snapshots": [0.01, 0.02, 0.03]}
    cfg["output"] = {"grid": [str(tmp_path / f"snap{k}.grid") for k in range(3)]}
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        rc, peak = traced_peak(lambda: cli.main([command, path]))
        assert rc == 2
        assert peak < 4 << 20
        assert capsys.readouterr().err == (
            "config error at $.time.snapshots: 3 snapshots of the grid exceed the budget of "
            f"{budgets.MAX_GRID_VALUES} values\n")
    cfg["time"]["snapshots"] = [0.01, 0.02]
    cfg["output"]["grid"] = cfg["output"]["grid"][:2]
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0


def _contact_grid_config(tmp_path, **overrides):
    cfg = {
        "chart": {"kind": "contact", "n": 1},
        "task": "kinetic-grid",
        "hamiltonian": "z + p1^2/2",
        "initial": {
            "grid": {"axes": [{"lo": -2.0, "hi": 2.0, "size": 32},
                              {"lo": -2.0, "hi": 2.0, "size": 32},
                              {"lo": -2.0, "hi": 2.0, "size": 32}]},
            "density": "1 + q1^2",
        },
        "time": {"t_final": 0.02, "dt": 0.005},
        "output": {"grid": str(tmp_path / "g.grid")},
    }
    cfg.update(overrides)
    return cfg


def task_config(tmp_path, task, **overrides):
    """A small valid contact n=1 config for `task`."""
    if task == "simulate":
        return simulate_config(tmp_path, **overrides)
    if task in ("kinetic-grid", "kinetic-particle"):
        return _contact_grid_config(tmp_path, task=task, **overrides)
    cfg = {"chart": {"kind": "contact", "n": 1}, "task": task, "trials": 2,
           "output": {"report": str(tmp_path / "report.txt")}}
    cfg.update(overrides)
    return cfg


def set_path(cfg, path, value):
    """Set the config key at JSON `path`, making its sections on the way."""
    *sections, key = path.split(".")[1:]
    for name in sections:
        cfg = cfg.setdefault(name, {})
    cfg[key] = value


_FIELD_READERS = ("simulate", "kinetic-grid", "kinetic-particle")
# A value past the rule of each key that only some tasks read, and those
# tasks, as their runners read the config.  The rules of the schema rows
# and the value checks of `cli.Scenario` both apply to a key's readers alone.
_PAST_THEIR_RULES = [
    ("$.field.family", "lagrangian", _FIELD_READERS),
    ("$.field.gauge", "one", _FIELD_READERS),  # contact charts carry no time gauge
    ("$.initial.point", [0.0], ("simulate",)),
    ("$.initial.one_form", ["q1"], ("momentum-check",)),
    ("$.initial.grid.axes", [{"lo": 0.0, "hi": 1.0, "size": 1}],
     ("kinetic-grid", "kinetic-particle")),
    ("$.time.t_final", -1.0, _FIELD_READERS),
    ("$.time.dt", 0.0, _FIELD_READERS),
    ("$.time.cfl", -0.5, ("kinetic-grid",)),
    ("$.time.method", "euler", ("simulate",)),
    ("$.time.rel_tol", -1e-8, ("simulate",)),
    ("$.time.abs_tol", 0.0, ("simulate",)),
    ("$.time.snapshots", [0.2, 0.1], _FIELD_READERS),
    ("$.particles", 500, ("kinetic-particle",)),
    ("$.threads", 0, ("kinetic-particle",)),
    ("$.trials", 0, ("identity-check", "momentum-check")),
    ("$.seed", -1, ("identity-check", "momentum-check", "kinetic-particle")),
]


@pytest.mark.parametrize("task", cli.TASKS)
def test_a_rule_applies_to_the_tasks_that_read_its_key(tmp_path, capsys, task):
    # every schema rule that some task skips is among them
    scoped = {path for path, (_, _, rule, readers) in cli.SCHEMA.items()
              if rule is not None and readers is not None}
    assert scoped <= {path for path, _, _ in _PAST_THEIR_RULES}
    for path, value, readers in _PAST_THEIR_RULES:
        cfg = task_config(tmp_path, task)
        set_path(cfg, path, value)
        code = cli.main(["validate", write_config(tmp_path, cfg)])
        out, err = capsys.readouterr()
        if task in readers:
            assert (code, err.partition(": ")[0]) == (2, f"config error at {path}"), path
        else:
            assert (code, out.partition("\n")[0], err) == (0, "ok", ""), path


def _readme_config_rules():
    """Config path -> the rule cell of its row in README's config table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| section | key | type | default | rule |\n|---|---|---|---|---|\n"
    rules = {}
    for row in readme.split(header)[1].split("\n\n")[0].splitlines():
        section, keys, _, _, rule = (cell.strip() for cell in row.strip("|").split("|"))
        section = "$.initial.grid.axes.*" if section == "axis" else section.strip("`")
        for key in keys.split(","):
            rules[f"{section}.{key.strip().strip('`')}"] = rule
    return rules


def test_the_readme_config_table_names_each_key_and_its_readers():
    rules = _readme_config_rules()
    leaves = {path for path, (kind, *_) in cli.SCHEMA.items()
              if kind != "object" and not path.endswith("*")}
    assert leaves <= set(rules)
    for path, rule in rules.items():
        readers = cli.SCHEMA[path][3]  # a KeyError: the table documents no key
        if readers is not None:
            assert {task for task in cli.TASKS if f"`{task}`" in rule} == set(readers), path


@pytest.mark.parametrize("task", ["kinetic-grid", "kinetic-particle"])
@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-1.7e308, 1.7e308)],
                         ids=["width-underflows", "width-overflows"])
def test_a_cell_width_outside_float_range_is_a_config_error(tmp_path, capsys, task, lo, hi):
    cfg = task_config(tmp_path, task, particles=1000)
    cfg["initial"]["grid"]["axes"][0] = {"lo": lo, "hi": hi, "size": 32}
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err == ("config error at $.initial.grid.axes[0]: axis q1: "
                                           "hi must exceed lo by a finite nonzero cell width\n")
    assert not (tmp_path / "g.grid").exists()


@pytest.mark.parametrize("task", ["kinetic-grid", "kinetic-particle"])
@pytest.mark.parametrize("kind, field", [
    ("contact", {"family": "energy"}),
    ("contact", {"family": "strict"}),
    ("cocontact", {"gauge": "one"}),
    ("cocontact", {"family": "energy", "gauge": "zero"}),
    ("cosymplectic", {"gauge": "gradH"}),
])
def test_kinetic_tasks_refuse_any_field_but_hamiltonian_gauge_zero(tmp_path, capsys, task,
                                                                   kind, field):
    cfg = _contact_grid_config(tmp_path, task=task, field=field, particles=1000)
    if kind != "contact":  # the same problem on a chart with t, t collapsed first
        cfg["chart"]["kind"] = kind
        cfg["initial"]["grid"]["axes"].insert(0, {"lo": -0.5, "hi": 0.5, "size": 1})
        if kind == "cosymplectic":
            cfg["hamiltonian"] = "p1^2/2"
            cfg["initial"]["grid"]["axes"].pop()
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err.startswith("config error at $.field: ")
    assert not (tmp_path / "g.grid").exists()


@pytest.mark.parametrize("field", [{}, {"family": "hamiltonian"}])
def test_kinetic_tasks_take_the_default_field(tmp_path, capsys, field):
    path = write_config(tmp_path, _contact_grid_config(tmp_path, field=field))
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "task: kinetic-grid" in out and "field:" not in out  # there is only one
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "g.grid").exists()


def test_grid_past_the_cell_budget_is_refused_without_allocating(tmp_path, capsys):
    axes = [{"lo": -2.0, "hi": 2.0, "size": 1_000_000}, {"lo": -2.0, "hi": 2.0, "size": 1_000_000}]
    cfg = {
        "chart": {"kind": "symplectic", "n": 1},
        "task": "kinetic-grid",
        "hamiltonian": "p1^2/2",
        "initial": {"grid": {"axes": axes}, "density": "1"},
        "time": {"t_final": 0.1},
        "output": {"grid": str(tmp_path / "g.grid")},
    }
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        rc, peak = traced_peak(lambda: cli.main([command, path]))
        assert rc == 2
        assert peak < 4 << 20  # a 10**12-cell grid never comes near an allocation
        assert capsys.readouterr().err == (
            "config error at $.initial.grid.axes: the axis sizes multiply to more than "
            f"{budgets.MAX_GRID_VALUES // 2} cells\n")
    assert not (tmp_path / "g.grid").exists()


@pytest.mark.parametrize("key, value, path", [
    ("particles", budgets.MAX_PARTICLES + 1, "$.particles"),
    ("particles", 10 ** 400, "$.particles"),
    ("trials", budgets.MAX_TRIALS + 1, "$.trials"),
])
def test_particles_and_trials_past_their_budget_are_config_errors(tmp_path, capsys, key,
                                                                   value, path):
    # each on a task that reads it
    task = "identity-check" if key == "trials" else "kinetic-particle"
    cfg = task_config(tmp_path, task, **{key: value})
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: must be between ")


def test_particles_are_range_checked_for_kinetic_particle_alone(tmp_path, capsys):
    # a task that does not read the key takes any count; kinetic-particle takes its range
    cfg = simulate_config(tmp_path, particles=500)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.startswith("ok\n")
    cfg = _contact_grid_config(tmp_path, task="kinetic-particle", particles=500)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error at $.particles: must be between 1000 and {budgets.MAX_PARTICLES}\n")


def compiles_of_a_run(monkeypatch, cfg_path):
    """Load and run the scenario at `cfg_path`; return it and the
    (polynomial, kind) of every `Poly._compile` call the two made."""
    compiled, compile_ = [], Poly._compile

    def counted(self, kind):
        compiled.append((self, kind))
        return compile_(self, kind)

    monkeypatch.setattr(Poly, "_compile", counted)
    scenario = cli.load_scenario(cfg_path)
    assert cli.run_scenario(scenario) == 0
    assert len({(id(poly), kind) for poly, kind in compiled}) == len(compiled)  # none twice
    return scenario, compiled


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_simulate_run_compiles_each_evaluator_once(tmp_path, monkeypatch, method):
    # the field's checked entries for the steps, the monitors' array kernels after them
    cfg = simulate_config(tmp_path, hamiltonian="z + p1^2/2 + q1^2/2",
                          time={"t_final": 0.1, "dt": 0.01, "method": method})
    scenario, compiled = compiles_of_a_run(monkeypatch, write_config(tmp_path, cfg))
    dyn = scenario.dynamics
    monitors = [dyn.H, dyn.diagnostics.dH_along_flow, dyn.diagnostics.divergence]
    assert {id(poly) for poly, kind in compiled if kind == "entry"} == \
        {id(c) for c in dyn.field.components}
    assert {id(poly) for poly, kind in compiled if kind == "array"} == set(map(id, monitors))


def test_a_kinetic_particle_run_compiles_array_kernels_alone(tmp_path, monkeypatch):
    cfg = _contact_grid_config(tmp_path, task="kinetic-particle", particles=1000)
    scenario, compiled = compiles_of_a_run(monkeypatch, write_config(tmp_path, cfg))
    assert {kind for _, kind in compiled} == {"array"}
    moving = [c for c in scenario.dynamics.field.components if not c.is_zero()]
    assert {id(c) for c in moving} <= {id(poly) for poly, _ in compiled}


def _wide_chart_config(tmp_path, task, particles, size):
    """A cocontact n=16 kinetic config (34 coordinates): q1 and p1 carry
    `size` cells each and every other axis is collapsed."""
    chart = Chart(ChartKind.COCONTACT, 16)
    axes = [{"lo": -2.0, "hi": 2.0, "size": size if name in ("q1", "p1") else 1}
            for name in chart.coord_names]
    return {
        "chart": {"kind": "cocontact", "n": 16},
        "task": task,
        "hamiltonian": "p1^2/2",
        "particles": particles,
        "initial": {"grid": {"axes": axes}, "density": "1"},
        "time": {"t_final": 0.1, "dt": 0.01},
        "output": {"grid": str(tmp_path / "g.grid")},
    }


@pytest.mark.parametrize("task, particles, size, path, message", [
    # 2 500 000 particles x 35 values: about 700 MB for one copy of the push state
    # (1581^2 seeded)
    pytest.param("kinetic-particle", budgets.MAX_PARTICLES, 32, "$.particles",
                 f"2499561 seeded particles x 35 values exceed the push budget of "
                 f"{budgets.MAX_PUSH_VALUES}; at most {budgets.MAX_PUSH_VALUES // 35} on this chart",
                 id="particles"),
    # 512^2 cells x 34 coordinates: fewer cells than MAX_GRID_VALUES // 2, too many values
    pytest.param("kinetic-grid", 100_000, 512, "$.initial.grid.axes",
                 f"the axis sizes multiply to more than {budgets.MAX_GRID_VALUES // 34} cells",
                 id="cells"),
])
def test_budgets_count_coordinates_not_particles_or_cells(tmp_path, capsys, task, particles,
                                                          size, path, message):
    assert size ** 2 <= budgets.MAX_GRID_VALUES // 2
    cfg_path = write_config(tmp_path, _wide_chart_config(tmp_path, task, particles, size))
    for command in ("validate", "run"):
        rc, peak = traced_peak(lambda: cli.main([command, cfg_path]))
        assert rc == 2
        assert peak < 4 << 20  # refused before the push state or a grid is allocated
        assert capsys.readouterr().err == f"config error at {path}: {message}\n"
    assert not (tmp_path / "g.grid").exists()


@pytest.mark.parametrize("task", cli.TASKS)
def test_the_push_budget_answers_for_particle_runs_alone(tmp_path, capsys, task):
    # 300 000 particles (548^2 = 300 304 seeded) x 35 values on cocontact
    # n=16 are past the push budget; only a kinetic-particle run pushes them
    chart = {"kind": "cocontact", "n": 16}
    cfg = {
        "simulate": {"chart": chart, "task": task, "hamiltonian": "p1^2/2",
                     "initial": {"point": [0.1] * 34}, "time": {"t_final": 0.1},
                     "output": {"trajectory": str(tmp_path / "traj.csv")}},
        "kinetic-grid": _wide_chart_config(tmp_path, task, 100_000, 32),
        "kinetic-particle": _wide_chart_config(tmp_path, task, 100_000, 32),
        "identity-check": {"chart": chart, "task": task,
                           "output": {"report": str(tmp_path / "report.json")}},
        "momentum-check": {"chart": chart, "task": task,
                           "output": {"report": str(tmp_path / "report.txt")}},
    }[task]
    cfg["particles"] = 300_000
    if task == "kinetic-particle":
        assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error at $.particles: 300304 seeded particles x 35 values exceed the push "
            f"budget of {budgets.MAX_PUSH_VALUES}; at most {budgets.MAX_PUSH_VALUES // 35} on "
            f"this chart\n")
    else:
        assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.startswith(f"ok\ntask: {task}\n")


def test_budgets_leave_the_default_particles_on_the_widest_chart(tmp_path, capsys):
    cfg = _wide_chart_config(tmp_path, "kinetic-particle", 100_000, 32)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0


def test_a_particle_run_holds_one_ensemble_to_its_written_files(tmp_path, capsys):
    # 480^2 particles: from the config to the deposit and particle files, a
    # run peaks under 1.5 push states (N x (dim + 1) float64); a writer that
    # stacks the ensemble into one table alone takes it past 2
    count = 480 ** 2
    cfg = _kinetic_config(tmp_path, "kinetic-particle", "p1^2/2 + q1^2/2", 0.1, 0.01)
    cfg["particles"] = count
    cfg["initial"]["grid"]["axes"] = [{"lo": -2.0, "hi": 2.0, "size": 64}] * 2
    cfg["output"]["particles"] = str(tmp_path / "p.csv")
    path = write_config(tmp_path, cfg)
    small = write_config(tmp_path, {**cfg, "particles": 1_000}, name="small.json")
    assert cli.main(["run", small]) == 0  # fill the caches of the exact side
    capsys.readouterr()
    rc, peak = traced_peak(lambda: cli.main(["run", path]))
    assert rc == 0
    assert f"kinetic-particle: {count} particles" in capsys.readouterr().out
    assert len(read_particles(Chart(ChartKind.SYMPLECTIC, 1), str(tmp_path / "p.csv")).weights) > 0
    assert peak <= 1.5 * count * 3 * 8


def test_the_push_budget_counts_the_seeded_particles(tmp_path, capsys):
    # the most particles the push budget allows on cocontact n=1; four active
    # axes round them to a lattice of 35^4 = 1 500 625 sites
    assert budgets.MAX_PUSH_VALUES // 5 == 1_500_000
    cfg = {
        "chart": {"kind": "cocontact", "n": 1},
        "task": "kinetic-particle",
        "hamiltonian": "p1^2/2",
        "particles": 1_500_000,
        "initial": {"grid": {"axes": [{"lo": -2.0, "hi": 2.0, "size": 26}] * 4},
                    "density": "1"},
        "time": {"t_final": 0.1, "dt": 0.01},
        "output": {"grid": str(tmp_path / "g.grid")},
    }
    for command in ("validate", "run"):
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error at $.particles: 1500625 seeded particles x 5 values exceed the "
            f"push budget of {budgets.MAX_PUSH_VALUES}; at most 1500000 on this chart\n")
    cfg["particles"] = 1_400_000  # a 34^4 lattice
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0


def test_resource_budgets_hold_the_largest_inputs_ten_times_over(tmp_path, capsys):
    assert budgets.MAX_GRID_VALUES // 2 >= 10 * 40 ** 3  # the benchmark's largest grid
    assert budgets.MAX_PARTICLES >= 10 * 480 ** 2  # and its largest ensemble
    assert budgets.MAX_GRID_VALUES >= 10 * 40 ** 3 * 3  # that grid on its 3-coordinate chart
    assert budgets.MAX_PUSH_VALUES >= 10 * 480 ** 2 * 3  # that ensemble: 2 coordinates, a weight
    assert budgets.MAX_TRIALS >= 10 * 25  # the default momentum-check trials
    # the default identity trials on the widest chart, and the benchmark's largest suite
    widest = Chart(ChartKind.COCONTACT, budgets.MAX_CHART_N).dim
    assert budgets.MAX_IDENTITY_WORK >= 10 * 20 * widest
    assert budgets.MAX_IDENTITY_WORK >= 10 * 10 * Chart(ChartKind.COCONTACT, 2).dim
    assert budgets.MAX_WORK >= 10 * 128 ** 2 * 250  # the benchmark's largest grid run
    assert budgets.MAX_WORK >= 10 * 100_000 * 50  # the tests' largest particle run
    assert budgets.MAX_STEPS >= 10 * 10_000  # the longest loop of a test or benchmark run
    assert cli.main(["identity", "--chart", "symplectic", "--trials",
                     str(budgets.MAX_TRIALS + 1)]) == 2
    assert "config error at --trials: must be between 1 and" in capsys.readouterr().err


def test_identity_runs_past_the_work_budget_are_config_errors(tmp_path, capsys):
    chart = Chart(ChartKind.COCONTACT, budgets.MAX_CHART_N)
    most = budgets.MAX_IDENTITY_WORK // chart.dim
    message = (f"{most + 1} trials x {chart.dim} coordinates exceed the identity budget of "
               f"{budgets.MAX_IDENTITY_WORK}; at most {most} on this chart\n")
    argv = ["identity", "--chart", "cocontact", "--n", str(chart.n), "--trials", str(most + 1)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error at --trials: {message}"
    cfg = {"chart": {"kind": "cocontact", "n": chart.n}, "task": "identity-check",
           "trials": most + 1, "output": {"report": str(tmp_path / "report.json")}}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"config error at $.trials: {message}"
    # the budget itself, and the default 20 trials at every n, are accepted
    cfg["trials"] = most
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    del cfg["trials"]
    for n in range(1, budgets.MAX_CHART_N + 1):
        cfg["chart"]["n"] = n
        assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    assert not (tmp_path / "report.json").exists()


def test_a_thousand_identity_trials_on_the_widest_chart_exit_2_at_once():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "geokin.cli", "identity", "--chart", "cocontact",
                           "--n", "16", "--trials", "1000"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error at --trials: 1000 trials x 34 coordinates")
    assert elapsed < 1.0


@pytest.mark.parametrize("task, builds, diagnoses", [
    ("simulate", 1, 1), ("kinetic-grid", 1, 0), ("kinetic-particle", 1, 0)])
def test_each_run_builds_its_field_once(tmp_path, monkeypatch, task, builds, diagnoses):
    """Config checks and the solver share one build; kinetic runs need no diagnostics."""
    counts = {"make_field": 0, "diagnostics": 0}
    for name in counts:  # every module's binding, wherever it was imported
        original = getattr(fields, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "geokin"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    if task == "simulate":
        cfg = simulate_config(tmp_path)
    else:
        cfg = _kinetic_config(tmp_path, task, "p1^2/2", 0.04, 0.01)
        if task == "kinetic-grid":
            cfg["time"] = {"snapshots": [0.02, 0.03, 0.04], "dt": 0.01}
            cfg["output"]["grid"] = [str(tmp_path / f"snap{k}.grid") for k in range(3)]
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    assert counts == {"make_field": builds, "diagnostics": diagnoses}


@pytest.mark.parametrize("case", ["seeded", "pushed"])
def test_a_particle_overflow_exits_1_with_one_stderr_line(tmp_path, case):
    """In a subprocess, because pytest captures warnings: numpy's overflow
    warnings must not reach stderr."""
    if case == "seeded":
        chart, hamiltonian, density = {"kind": "symplectic", "n": 1}, "p1^2/2", "q1^24"
        axes = [{"lo": -1e20, "hi": 1e20, "size": 32}, {"lo": -2.0, "hi": 2.0, "size": 32}]
    else:
        chart, hamiltonian, density = {"kind": "contact", "n": 1}, "10^100*z", "1"
        axes = [{"lo": -1.0, "hi": 1.0, "size": 32}, {"lo": -1e-3, "hi": 1e-3, "size": 1},
                {"lo": -1e-3, "hi": 1e-3, "size": 1}]
    cfg = {"chart": chart, "task": "kinetic-particle", "hamiltonian": hamiltonian,
           "particles": 1000,
           "initial": {"grid": {"axes": axes}, "density": density},
           "time": {"t_final": 1.0, "dt": 1.0},
           "output": {"grid": str(tmp_path / "g.grid")}}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "geokin.cli", "run", write_config(tmp_path, cfg)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "g.grid").exists()
