"""Seeded, exact identity suite over one chart.

Every law the library promises is restated here as a standalone check
over a random polynomial corpus and reported as pass/fail with a
printable witness on failure.  The CLI identity task and the test
suite both run through this module, so a law that breaks shows up
identically in both places.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .brackets import (
    BracketKind,
    JACOBIATOR_WITNESS_NAMES,
    bracket,
    bracket_via_bivector,
    canonical_bracket_kind,
    jacobiator,
    jacobiator_witness,
    kinds_for_chart,
    leibniz_defect,
)
from .chart import (
    Chart,
    canonical_eta,
    canonical_tau,
    contract_twoform,
    differential,
    pairing,
    reeb_eta,
    reeb_tau,
    two_form_omega,
)
from .corpus import random_hamiltonian, random_one_form, random_poly
from .density import (
    adjudicate_density_coefficients,
    density_coefficients,
    dual_pairing_residual,
    intertwine_residual,
    kinetic_spec,
    momentum_map,
)
from .fields import (
    Family,
    FieldSpec,
    Gauge,
    catalog,
    diagnostics,
    divergence,
    exterior_derivative_oneform,
    jacobi_lie_bracket,
    lie_derivative_oneform,
    lie_derivative_twoform,
    make_field,
    wedge,
)
from .musical import (
    SharpVariant,
    flat_sharp_residual,
    sharp,
    sharp_flat_residual,
)
from .poly import Poly


@dataclass
class LawReport:
    name: str
    status: str  # "pass" or "fail"
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        out = {"law": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def suite_passed(reports: list[LawReport]) -> bool:
    return all(r.passed for r in reports)


def _fmt(chart: Chart, poly: Poly) -> str:
    return poly.to_text(chart.coord_names)


class _Runner:
    def __init__(self, chart: Chart, seed: int, trials: int):
        self.chart = chart
        self.seed = seed
        self.trials = trials
        self.reports: list[LawReport] = []

    def check(self, name: str, fn, salt: int | None = None) -> None:
        """Record one law; fn returns None on success or a witness on failure.

        Without a salt fn() runs once.  With a salt fn(rng) runs once per
        trial, every draw from one stream seeded by (seed, chart, salt),
        and the first witness ends the draws.
        """
        try:
            if salt is None:
                witness = fn()
            else:
                rng = random.Random(f"{self.seed}/{self.chart.kind.value}/{self.chart.n}/{salt}")
                witness = None
                for _ in range(self.trials):
                    witness = fn(rng)
                    if witness is not None:
                        break
        except Exception as exc:  # a crash is a failure with provenance
            witness = f"raised {type(exc).__name__}: {exc}"
        if witness is None:
            self.reports.append(LawReport(name, "pass"))
        else:
            self.reports.append(LawReport(name, "fail", witness))


# -- law bodies --------------------------------------------------------


def _musical_laws(run: _Runner) -> None:
    chart = run.chart

    def roundtrips(rng):
        alpha = random_one_form(rng, chart, degree=2, terms=3)
        r1 = flat_sharp_residual(alpha)
        if not r1.is_zero():
            return f"flat(sharp(alpha)) != alpha for alpha with q1 part {_fmt(chart, alpha.components[chart.q_slot(1)])}"
        X = sharp(random_one_form(rng, chart, degree=2, terms=3))
        r2 = sharp_flat_residual(X)
        if not r2.is_zero():
            return "sharp(flat(X)) != X"
        return None

    run.check("musical/roundtrips", roundtrips, salt=1)

    def reeb_images():
        if chart.has_time:
            if sharp(canonical_tau(chart)) != reeb_tau(chart):
                return "sharp(tau) is not the time Reeb field"
            if not sharp(canonical_tau(chart), SharpVariant.BIVECTOR).is_zero():
                return "bivector sharp does not kill tau"
        if chart.has_z:
            if sharp(canonical_eta(chart)) != reeb_eta(chart):
                return "sharp(eta) is not the z Reeb field"
            if not sharp(canonical_eta(chart), SharpVariant.BIVECTOR).is_zero():
                return "bivector sharp does not kill eta"
        return None

    run.check("musical/reeb-images", reeb_images)

    def reeb_contractions():
        d_eta = exterior_derivative_oneform(canonical_eta(chart)) if chart.has_z else None
        if chart.has_time:
            R = reeb_tau(chart)
            if pairing(canonical_tau(chart), R) != chart.const(1):
                return "<tau, R_tau> != 1"
            if chart.has_z and not pairing(canonical_eta(chart), R).is_zero():
                return "<eta, R_tau> != 0"
            if chart.has_z and not contract_twoform(R, d_eta).is_zero():
                return "i_{R_tau} d(eta) != 0"
        if chart.has_z:
            R = reeb_eta(chart)
            if pairing(canonical_eta(chart), R) != chart.const(1):
                return "<eta, R_eta> != 1"
            if chart.has_time and not pairing(canonical_tau(chart), R).is_zero():
                return "<tau, R_eta> != 0"
            if not contract_twoform(R, d_eta).is_zero():
                return "i_{R_eta} d(eta) != 0"
        return None

    run.check("musical/reeb-contractions", reeb_contractions)


def _bracket_laws(run: _Runner) -> None:
    chart = run.chart
    for kind in kinds_for_chart(chart.kind):
        tag = f"bracket/{kind.value}"

        def antisymmetry(rng):
            F = random_poly(rng, chart.dim, degree=3, terms=3)
            H = random_poly(rng, chart.dim, degree=3, terms=3)
            if not (bracket(chart, kind, F, H) + bracket(chart, kind, H, F)).is_zero():
                return f"{{F,H}} + {{H,F}} != 0 at F = {_fmt(chart, F)}"
            return None

        run.check(f"{tag}/antisymmetry", antisymmetry, salt=10)

        def bivector_route(rng):
            F = random_poly(rng, chart.dim, degree=3, terms=3)
            H = random_poly(rng, chart.dim, degree=3, terms=3)
            if bracket(chart, kind, F, H) != bracket_via_bivector(chart, kind, F, H):
                return f"partial-derivative and bivector routes differ at F = {_fmt(chart, F)}"
            return None

        run.check(f"{tag}/bivector-route", bivector_route, salt=11)

        if kind.is_jacobi or kind in (
            BracketKind.POISSON_SYMPLECTIC,
            BracketKind.POISSON_COSYMPLECTIC,
        ):

            def jacobi(rng):
                F, G, H = (random_poly(rng, chart.dim, degree=2, terms=3) for _ in range(3))
                if not jacobiator(chart, kind, F, G, H).is_zero():
                    return f"jacobiator != 0 at F = {_fmt(chart, F)}, G = {_fmt(chart, G)}"
                return None

            run.check(f"{tag}/jacobi", jacobi, salt=12)

        if not kind.is_jacobi:

            def leibniz(rng):
                F, K, H = (random_poly(rng, chart.dim, degree=2, terms=3) for _ in range(3))
                if not leibniz_defect(chart, kind, F, K, H).is_zero():
                    return f"Leibniz defect != 0 at F = {_fmt(chart, F)}"
                return None

            run.check(f"{tag}/leibniz", leibniz, salt=13)
        else:

            def weak_leibniz(rng):
                F, K, H = (random_poly(rng, chart.dim, degree=2, terms=3) for _ in range(3))
                defect = leibniz_defect(chart, kind, F, K, H)
                expect = K * H * F.partial(chart.z_slot)
                if defect != expect:
                    return f"weak-Leibniz defect is not K*H*dF/dz at F = {_fmt(chart, F)}"
                return None

            run.check(f"{tag}/weak-leibniz-defect", weak_leibniz, salt=14)

        if kind.is_almost_poisson:

            def witness_nonzero():
                F, G, H = jacobiator_witness(chart, kind)
                if jacobiator(chart, kind, F, G, H).is_zero():
                    return f"pinned witness {JACOBIATOR_WITNESS_NAMES} has zero jacobiator"
                return None

            run.check(f"{tag}/jacobi-fails-witness", witness_nonzero)

        if kind in (BracketKind.POISSON_COSYMPLECTIC, BracketKind.ALMOST_POISSON_COCONTACT):

            def time_casimir(rng):
                c = random_poly(rng, chart.dim, degree=3, terms=3, frozen_slots=tuple(
                    i for i in range(chart.dim) if i != chart.t_slot
                ))
                H = random_poly(rng, chart.dim, degree=3, terms=3)
                if not bracket(chart, kind, c, H).is_zero():
                    return f"time-only function {_fmt(chart, c)} is not a Casimir"
                return None

            run.check(f"{tag}/time-casimir", time_casimir, salt=15)


def _field_laws(run: _Runner) -> None:
    chart = run.chart
    omega = two_form_omega(chart)
    tau = canonical_tau(chart) if chart.has_time else None
    eta = canonical_eta(chart) if chart.has_z else None
    d_eta = exterior_derivative_oneform(eta) if chart.has_z else None

    for spec in catalog(chart):
        tag = f"field/{spec.row_name}"
        z_free = spec.family is Family.STRICT

        def contractions(rng):
            H = random_hamiltonian(rng, chart, z_free=z_free)
            X = make_field(spec, H)
            dH = differential(H, chart)
            expected = dH
            if chart.has_z:
                expected = expected - eta.scaled(pairing(dH, reeb_eta(chart)))
            if chart.has_time:
                expected = expected - tau.scaled(pairing(dH, reeb_tau(chart)))
            if contract_twoform(X, omega) != expected:
                return f"i_X d(eta) wrong at H = {_fmt(chart, H)}"
            if chart.has_z:
                want = chart.zero() if spec.family is Family.ENERGY else -H
                if pairing(eta, X) != want:
                    return f"<eta, X> wrong at H = {_fmt(chart, H)}"
            if chart.has_time:
                gauge_value = {
                    Gauge.ZERO: chart.zero(),
                    Gauge.ONE: chart.const(1),
                    Gauge.GRAD_H: H.partial(chart.t_slot),
                }[spec.gauge]
                if pairing(tau, X) != gauge_value:
                    return f"<tau, X> wrong at H = {_fmt(chart, H)}"
            return None

        run.check(f"{tag}/contractions", contractions, salt=20)

        def divergence_law(rng):
            H = random_hamiltonian(rng, chart, z_free=z_free)
            if divergence(make_field(spec, H)) != diagnostics(spec, H).divergence:
                return f"divergence drifts from closed form at H = {_fmt(chart, H)}"
            return None

        run.check(f"{tag}/divergence", divergence_law, salt=21)

        def energy_rate(rng):
            H = random_hamiltonian(rng, chart, z_free=z_free)
            if make_field(spec, H).apply_to(H) != diagnostics(spec, H).dH_along_flow:
                return f"X(H) drifts from closed form at H = {_fmt(chart, H)}"
            return None

        run.check(f"{tag}/energy-rate", energy_rate, salt=23)

        if chart.has_z:

            def conformal(rng):
                H = random_hamiltonian(rng, chart, z_free=z_free)
                d = diagnostics(spec, H)
                if d.conformal_eta != -H.partial(chart.z_slot):
                    return f"conformal eta coefficient wrong at H = {_fmt(chart, H)}"
                if chart.has_time and d.conformal_tau != -H.partial(chart.t_slot):
                    return f"conformal tau coefficient wrong at H = {_fmt(chart, H)}"
                return None

            run.check(f"{tag}/conformal", conformal, salt=24)

        def lie_laws(rng):
            H = random_hamiltonian(rng, chart, z_free=z_free)
            X = make_field(spec, H)
            if chart.has_z:
                expected = eta.scaled(-H.partial(chart.z_slot))
                if chart.has_time:
                    expected = expected + tau.scaled(-H.partial(chart.t_slot))
                if spec.family is Family.ENERGY:
                    expected = expected + differential(H, chart)
                lie_eta = lie_derivative_oneform(X, eta)
                if lie_eta != expected:
                    return f"L_X eta law fails at H = {_fmt(chart, H)}"
                got2 = lie_derivative_twoform(X, d_eta)
                h = H.partial(chart.z_slot)
                exp2 = wedge(differential(-h, chart), eta) + d_eta.scaled(-h)
                if chart.has_time:
                    g = H.partial(chart.t_slot)
                    exp2 = exp2 + wedge(differential(-g, chart), tau)
                if got2 != exp2:
                    return f"L_X d(eta) law fails at H = {_fmt(chart, H)}"
                if got2 != exterior_derivative_oneform(lie_eta):
                    return "L_X d(eta) != d(L_X eta)"
            if chart.has_time:
                got_tau = lie_derivative_oneform(X, tau)
                if spec.gauge is Gauge.GRAD_H:
                    if got_tau != differential(H.partial(chart.t_slot), chart):
                        return f"L_X tau law fails at H = {_fmt(chart, H)}"
                elif not got_tau.is_zero():
                    return f"L_X tau != 0 at H = {_fmt(chart, H)}"
            if not chart.has_z:
                got_omega = lie_derivative_twoform(X, omega)
                if chart.has_time:
                    expected_omega = wedge(differential(-H.partial(chart.t_slot), chart), tau)
                    if got_omega != expected_omega:
                        return f"L_X Omega law fails at H = {_fmt(chart, H)}"
                elif not got_omega.is_zero():
                    return f"symplectic flow fails to preserve Omega at H = {_fmt(chart, H)}"
            return None

        run.check(f"{tag}/lie-laws", lie_laws, salt=22)


def _homomorphism_laws(run: _Runner) -> None:
    chart = run.chart
    kind = canonical_bracket_kind(chart.kind)
    spec = kinetic_spec(chart)

    def hamiltonian_row(rng):
        F = random_hamiltonian(rng, chart)
        H = random_hamiltonian(rng, chart)
        lhs = jacobi_lie_bracket(make_field(spec, F), make_field(spec, H))
        rhs = -make_field(spec, bracket(chart, kind, F, H))
        if lhs != rhs:
            return f"[X_F, X_H] != -X_{{F,H}} at F = {_fmt(chart, F)}, H = {_fmt(chart, H)}"
        return None

    run.check("homomorphism/hamiltonian", hamiltonian_row, salt=30)

    if chart.has_z:
        strict = FieldSpec(chart, Family.STRICT, spec.gauge)

        def strict_row(rng):
            F = random_hamiltonian(rng, chart, z_free=True)
            H = random_hamiltonian(rng, chart, z_free=True)
            lhs = jacobi_lie_bracket(make_field(strict, F), make_field(strict, H))
            rhs = -make_field(strict, bracket(chart, kind, F, H))
            if lhs != rhs:
                return f"strict rows fail to close at F = {_fmt(chart, F)}"
            return None

        run.check("homomorphism/strict", strict_row, salt=31)


def _kinetics_laws(run: _Runner) -> None:
    chart = run.chart

    def intertwine(rng):
        H = random_hamiltonian(rng, chart, degree=2, terms=3)
        Pi = random_one_form(rng, chart, degree=2, terms=2)
        residual = intertwine_residual(H, Pi)
        if not residual.is_zero():
            return f"residual {_fmt(chart, residual)} at H = {_fmt(chart, H)}"
        return None

    run.check("kinetics/intertwine", intertwine, salt=40)

    def adjudication():
        frozen = density_coefficients(chart)
        solved = adjudicate_density_coefficients(chart, seed=run.seed + 17)
        if solved != frozen:
            return f"adjudicated {solved} != frozen {frozen}"
        return None

    run.check("kinetics/adjudication", adjudication)

    def linearity(rng):
        A = random_one_form(rng, chart, degree=2, terms=2)
        B = random_one_form(rng, chart, degree=2, terms=2)
        lhs = momentum_map(A + B.scaled(chart.const(-3)))
        rhs = momentum_map(A) - Poly.const(chart.dim, 3) * momentum_map(B)
        if lhs != rhs:
            return "momentum map is not linear"
        return None

    run.check("kinetics/momentum-linearity", linearity, salt=41)

    def dual_pairing(rng):
        H = random_hamiltonian(rng, chart, degree=2, terms=3)
        Pi = random_one_form(rng, chart, degree=2, terms=2)
        residual = dual_pairing_residual(chart, H, Pi)
        if not residual.is_zero():
            return f"pairing residual {_fmt(chart, residual)}"
        return None

    run.check("kinetics/dual-pairing", dual_pairing, salt=42)


def run_identity_suite(chart: Chart, seed: int = 0, trials: int = 20) -> list[LawReport]:
    """Run every exact law for one chart; all checks always execute."""
    if trials < 1:
        raise ValueError("trials must be positive")
    run = _Runner(chart, seed, trials)
    _musical_laws(run)
    _bracket_laws(run)
    _field_laws(run)
    _homomorphism_laws(run)
    _kinetics_laws(run)
    return run.reports
