import json
import os
import random
import subprocess
import sys

import pytest

from geokin import poly
from geokin.chart import Chart, ChartKind
from geokin.identities import LawReport, _Runner, run_identity_suite, suite_passed

ALL_CHARTS = [
    Chart(kind, n) for kind in ChartKind for n in (1, 2)
]


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=lambda c: f"{c.kind.value}-n{c.n}")
def test_every_law_passes(chart, monkeypatch):
    check, biggest = poly._check_product, [0]

    def counted(*args):
        biggest[0] = max(biggest[0], pairs := check(*args))
        return pairs

    monkeypatch.setattr(poly, "_check_product", counted)
    reports = run_identity_suite(chart, seed=0, trials=5)
    failures = [r for r in reports if not r.passed]
    assert not failures, "\n".join(f"{r.name}: {r.witness}" for r in failures)
    assert len(reports) >= 15
    # the suite's largest exact product sits far below the pair budget
    assert 0 < 100 * biggest[0] <= poly.MAX_PRODUCT_PAIRS


def test_law_names_are_unique_and_stable():
    chart = Chart(ChartKind.COCONTACT, 1)
    names = [r.name for r in run_identity_suite(chart, seed=3, trials=2)]
    assert len(names) == len(set(names))
    # spot checks pinning the naming scheme the CLI exposes
    assert "musical/roundtrips" in names
    assert "bracket/jacobi-cocontact/weak-leibniz-defect" in names
    assert "bracket/almost-poisson-cocontact/jacobi-fails-witness" in names
    assert "field/hamiltonian/one/lie-laws" in names
    assert "homomorphism/strict" in names
    assert "kinetics/adjudication" in names


def test_suite_grows_with_structure():
    sizes = {
        kind: len(run_identity_suite(Chart(kind, 1), trials=1))
        for kind in ChartKind
    }
    assert sizes[ChartKind.SYMPLECTIC] < sizes[ChartKind.COSYMPLECTIC]
    assert sizes[ChartKind.COSYMPLECTIC] < sizes[ChartKind.CONTACT]
    assert sizes[ChartKind.CONTACT] < sizes[ChartKind.COCONTACT]


def test_reports_serialize_to_json():
    reports = run_identity_suite(Chart(ChartKind.SYMPLECTIC, 1), trials=2)
    blob = json.dumps([r.as_dict() for r in reports])
    parsed = json.loads(blob)
    assert all(entry["status"] == "pass" for entry in parsed)
    assert "witness" not in parsed[0]  # passes omit the witness key


def test_failed_report_carries_witness():
    r = LawReport("demo/law", "fail", witness="F = q1")
    assert not r.passed
    assert r.as_dict() == {"law": "demo/law", "status": "fail", "witness": "F = q1"}
    assert not suite_passed([LawReport("a", "pass"), r])


def test_runner_turns_crash_into_failure():
    run = _Runner(Chart(ChartKind.SYMPLECTIC, 1), seed=0, trials=1)

    def boom():
        raise RuntimeError("exploded mid-check")

    run.check("demo/crash", boom)
    (report,) = run.reports
    assert report.status == "fail"
    assert "RuntimeError" in report.witness
    assert "exploded mid-check" in report.witness


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_identity_suite(Chart(ChartKind.CONTACT, 1), trials=0)


def test_same_seed_same_reports():
    chart = Chart(ChartKind.CONTACT, 2)
    a = run_identity_suite(chart, seed=9, trials=3)
    b = run_identity_suite(chart, seed=9, trials=3)
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_runner_stops_at_the_first_witness_of_a_seeded_law():
    run = _Runner(Chart(ChartKind.CONTACT, 2), seed=7, trials=5)
    stream = random.Random("7/contact/2/99")
    draws = []

    def third_draw_fails(rng):
        draws.append(rng.random())
        return f"witness {len(draws)}" if len(draws) == 3 else None

    run.check("demo/third", third_draw_fails, salt=99)
    assert draws == [stream.random() for _ in range(3)]
    # a falsy witness is still a witness
    run.check("demo/empty", lambda rng: "", salt=1)
    run.check("demo/pass", lambda rng: None, salt=1)
    assert [r.as_dict() for r in run.reports] == [
        {"law": "demo/third", "status": "fail", "witness": "witness 3"},
        {"law": "demo/empty", "status": "fail", "witness": ""},
        {"law": "demo/pass", "status": "pass"},
    ]


def test_runner_reports_a_crash_on_a_later_draw():
    run = _Runner(Chart(ChartKind.SYMPLECTIC, 1), seed=0, trials=4)
    draws = []

    def crash_on_second_draw(rng):
        draws.append(rng.random())
        if len(draws) == 2:
            raise ZeroDivisionError("draw 2")
        return None

    run.check("demo/crash", crash_on_second_draw, salt=3)
    assert len(draws) == 2
    (report,) = run.reports
    assert report.witness == "raised ZeroDivisionError: draw 2"


_EXACT_CORE = """
import random, sys
from geokin import budgets, poly
from geokin.chart import Chart, ChartKind
from geokin.corpus import random_hamiltonian, random_one_form
from geokin.density import intertwine_residual
from geokin.identities import run_identity_suite, suite_passed

for kind in ChartKind:
    assert suite_passed(run_identity_suite(Chart(kind, 1), seed=0, trials=2)), kind
chart, rng = Chart(ChartKind.COCONTACT, 1), random.Random(0)
H, Pi = random_hamiltonian(rng, chart), random_one_form(rng, chart)
assert intertwine_residual(H, Pi).is_zero()
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def test_the_exact_core_runs_without_numpy():
    """The identity suite and the density law import and run without numpy,
    and so do the run budgets, in a fresh interpreter that has loaded
    nothing else."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _EXACT_CORE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
