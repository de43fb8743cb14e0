import json
import math

import pytest

from geokin import cli
from geokin.identities import LawReport
from geokin.kinetics import read_grid, read_particles
from geokin.chart import Chart, ChartKind


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


def test_identity_rejects_bad_n(capsys):
    assert cli.main(["identity", "--chart", "contact", "--n", "0"]) == 2
    assert "config error" in capsys.readouterr().err


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
    cfg = simulate_config(tmp_path, threads=threads)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
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
    ("$.particles", lambda cfg: cfg.update(particles=5)),
    ("$.time.cfl", _set("time", "cfl", -0.5)),
    ("$.time.rel_tol", _set("time", "rel_tol", -1e-8)),
    ("$.time.abs_tol", _set("time", "abs_tol", -1e-10)),
], ids=["trajectory-int", "t-final-inf", "dt-huge-int", "point-inf", "point-bool",
        "degree-overflow", "coefficient-overflow", "constant-power", "particles-few",
        "cfl-negative", "rel-tol-negative", "abs-tol-negative"])
def test_boundary_faults_are_config_errors(tmp_path, capsys, path, mutate):
    cfg = simulate_config(tmp_path)
    mutate(cfg)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


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
    assert ensemble.positions.shape[1] == 2
    first = (tmp_path / "dep.grid").read_bytes()
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "dep.grid").read_bytes() == first


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
