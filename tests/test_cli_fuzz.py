"""No traceback on any input: mutations of one small config per task.

Two strategies draw the configs: single-key mutations of any value, and
pairs of keys set to extreme values (1e300 bounds, degree-24 terms, dt
at the CFL edge), since some faults need two keys at once.  Each drawn
config goes through `geokin validate` and `geokin run`.  Both must end
in a documented exit code (0 ok, 1 check or solver failure, 2 config
error), raise nothing out of `cli.main`, and say why in exactly one
stderr line when they fail.  The bases are small (32-cell axes, 1000
particles, a few steps), and no drawn value, nor pair, is a size that is
both legal and large: sizes are small, or past a budget that refuses
them first.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from geokin import cli

_AXES = [{"lo": -2.0, "hi": 2.0, "size": 32}, {"lo": -2.0, "hi": 2.0, "size": 32}]
_KINETIC = {
    "chart": {"kind": "symplectic", "n": 1},
    "hamiltonian": "p1^2/2 + q1^2/2",
    "initial": {"grid": {"axes": _AXES}, "density": "1 + q1^2"},
    "output": {"grid": "out.grid"},
}
BASES = {
    "simulate": {
        "chart": {"kind": "contact", "n": 1},
        "task": "simulate",
        "hamiltonian": "z + p1^2/2",
        "initial": {"point": [0.1, 0.5, 1.0]},
        "time": {"t_final": 0.04, "dt": 0.01},
        "output": {"trajectory": "traj.csv"},
    },
    # no dt: the grid steps at its CFL limit
    "kinetic-grid": {**_KINETIC, "task": "kinetic-grid", "time": {"t_final": 0.04}},
    "kinetic-particle": {**_KINETIC, "task": "kinetic-particle", "particles": 1000,
                         "seed": 3, "time": {"t_final": 0.04, "dt": 0.02},
                         "output": {"grid": "out.grid", "particles": "ens.csv"}},
    "identity-check": {"chart": {"kind": "symplectic", "n": 1}, "task": "identity-check",
                       "trials": 2, "output": {"report": "report.json"}},
    "momentum-check": {"chart": {"kind": "symplectic", "n": 1}, "task": "momentum-check",
                       "trials": 2, "output": {"report": "report.txt"}},
}


def _key_paths(value, path=()):
    """The path of every key and list entry in a config."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield path + (key,)
        yield from _key_paths(sub, path + (key,))


# every key the schema declares (a base may lack it), plus unknown ones
_SCHEMA_PATHS = [tuple(p.split(".")[1:]) for p in cli.SCHEMA if p != "$" and "*" not in p]
_UNKNOWN_PATHS = [("bogus",), ("time", "bogus"), ("initial", "grid", "axes", 0, "bogus")]

_DELETE = object()
# Legal sizes here are at most 33; 10**12 and up is past every budget.
_INTS = [-1, 0, 1, 2, 3, 31, 32, 33, 10 ** 12, 10 ** 400, -10 ** 400]
_FLOATS = [-1.0, -0.0, 0.0, 1e-300, 0.005, 0.01, 0.02, 0.04, 0.5, 2.0, 1e300,
           math.nan, math.inf, -math.inf]
_WORDS = ["", "zero", "periodic", "x", "q1", "p1", "t", "z", *cli.TASKS]
# expressions and names; with no "/" no path reaches outside the run directory
_TEXT = st.one_of(st.sampled_from(_WORDS), st.text(alphabet="qptz12^*+-(). 0", max_size=12))
_ANY = st.recursive(
    st.one_of(st.sampled_from([None, True, False, *_INTS, *_FLOATS]), _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["lo", "hi", "size", "name", "boundary", "x"]),
                        inner, max_size=3)),
    max_leaves=4)
_NUMBERS = st.sampled_from(_INTS + _FLOATS)
# values of the type a key takes, so that most mutations get past the type check
_OF_TYPE = {
    "integer": st.sampled_from(_INTS),
    "number": _NUMBERS,
    "string": _TEXT,
    "numbers": st.lists(_NUMBERS, max_size=4),
    "paths": st.one_of(_TEXT, st.lists(_TEXT, max_size=4)),
}


def _values_for(path, current):
    """Values of the key's own type (its schema choices too), or anything."""
    key = "$" + "".join(f".{'*' if isinstance(k, int) else k}" for k in path)
    kind, _, rule = cli.SCHEMA.get(key, (None, None, None))
    if kind is None and isinstance(current, (int, float)) and not isinstance(current, bool):
        kind = "number"
    typed = _OF_TYPE.get(kind, _ANY)
    if isinstance(rule, tuple):
        typed = st.one_of(st.sampled_from(rule), typed)
    return st.one_of(typed, typed, _ANY, st.just(_DELETE))


def _parent(cfg, path):
    """The node holding the last key of `path`, made on the way if missing."""
    node = cfg
    for key in path[:-1]:
        if isinstance(node, dict) and key not in node:
            node[key] = {}
        node = node[key]
    return node


@st.composite
def mutated_configs(draw):
    task = draw(st.sampled_from(sorted(BASES)))
    cfg = copy.deepcopy(BASES[task])
    path = draw(st.sampled_from(list(_key_paths(cfg)) + _SCHEMA_PATHS + _UNKNOWN_PATHS))
    node = _parent(cfg, path)
    current = node[path[-1]] if isinstance(node, list) or path[-1] in node else None
    value = draw(_values_for(path, current))
    if value is not _DELETE:
        node[path[-1]] = value
    elif current is not None:
        del node[path[-1]]
    return cfg


# The kinetic bases' CFL limit: speed 1.9375 over 0.125-wide cells on two
# axes is a rate of 31; the grid steps under 0.9 of it, particles under 4.
_GRID_EDGE, _PARTICLE_EDGE = 0.9 / 31.0, 4.0 / 31.0
# A few extreme values per key.  Every pair of them is small, or refused
# before any work: a large t_final meets a step budget up front, for rk45
# as for rk4 and the kinetic solvers.
_EXTREMES = {
    ("hamiltonian",): ["q1^24 + p1^2/2", "p1^24/24 + q1^2/2", "10^300*(p1^2 + q1^2)",
                       "z^24 + p1^2/2", "q1^12*p1^12"],
    ("initial", "density"): ["q1^24", "q1^12*p1^12", "10^300", "10^300*q1^2"],
    ("initial", "point"): [[1e300, 1e300, 1e300], [1e150, -1e150, 1e150]],
    ("initial", "grid", "axes", 0, "lo"): [-1e300, -1e20],
    ("initial", "grid", "axes", 0, "hi"): [1e300, 1e20],
    ("initial", "grid", "axes", 1, "lo"): [-1e300],
    ("initial", "grid", "axes", 1, "hi"): [1e300],
    ("initial", "grid", "axes", 0, "boundary"): ["periodic"],
    ("time", "dt"): [_GRID_EDGE, math.nextafter(_GRID_EDGE, math.inf),
                     _PARTICLE_EDGE, math.nextafter(_PARTICLE_EDGE, math.inf), 1e-300],
    ("time", "t_final"): [1e300, 1e-300],
    ("time", "snapshots"): [[1e-300, 0.04], [1e300]],
    ("time", "cfl"): [1e300, 1e-300],
    ("seed",): [2 ** 64, 10 ** 400],
    ("threads",): [2],
    ("time", "method"): ["rk45"],
}


@st.composite
def extreme_pairs(draw):
    cfg = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for path in draw(st.lists(st.sampled_from(list(_EXTREMES)), min_size=2, max_size=2,
                              unique=True)):
        _parent(cfg, path)[path[-1]] = draw(st.sampled_from(_EXTREMES[path]))
    return cfg


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mutated_configs())
def test_no_input_ends_in_a_traceback(cfg):
    _validate_and_run(cfg)


def _rk45_for(t_final):
    cfg = copy.deepcopy(BASES["simulate"])
    cfg["time"].update(method="rk45", t_final=t_final)
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=extreme_pairs())
@example(cfg=_rk45_for(1e300))  # a draw that is rare among the pairs, pinned
def test_no_pair_of_extreme_values_ends_in_a_traceback(cfg):
    _validate_and_run(cfg)


def _validate_and_run(cfg):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as run_dir:
        os.chdir(run_dir)  # relative output paths land here
        try:
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            for command in ("validate", "run"):
                rc, err = _main([command, "config.json"])
                assert rc in (0, 1, 2), (command, rc)
                if rc:
                    assert err.endswith("\n") and err.count("\n") == 1, (command, err)
        finally:
            os.chdir(home)
