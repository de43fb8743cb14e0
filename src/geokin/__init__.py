"""Exact geometric dynamics on Darboux charts.

Four chart kinds (symplectic, cosymplectic, contact, cocontact) with
rational-coefficient polynomial observables, one module per layer:

- `poly`: exact polynomials and their compiled numeric kernels;
- `codegen`: the generated evaluators, RK steps and error norm;
- `chart`: charts, one-forms, vector fields, two-forms and the canonical
  forms;
- `musical`: the musical isomorphisms;
- `brackets`: the six canonical brackets;
- `fields`: the sixteen-row catalog of dynamics fields;
- `corpus`: seeded random observables;
- `identities`: the seeded exact identity suite;
- `density`: momentum one-forms and the density law;
- `budgets`: every run budget, its derivation and its check;
- `flow`: monitored numeric flows;
- `kinetics`: the particle and grid solvers of the density law;
- `cli`: the scenario runner.

Import the module you need (`from geokin import cli`); this package
imports none of them.  The exact layers, `poly` through `density`, and
`budgets` load without numpy.
"""

__version__ = "0.1.0"
