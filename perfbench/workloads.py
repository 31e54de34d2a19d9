"""The benchmark's workloads: each is a list of experiment presets run at a
fixed reduced scale through :func:`femtoshare.experiments.run`.

Why each workload exists:

* ``validation_op`` -- the ``fig1`` preset: plain Monte Carlo (i.i.d.
  interferer powers, every FAP active in every RB) plus the analytic
  bounds.  No regulation at all.
* ``regulation_curves`` -- ``fig3``, ``fig4`` and ``fig6``: analytic only,
  so solver and quadrature work dominate and Monte Carlo is bypassed.
* ``ase`` -- the ``fig7`` preset: the only caller of ``estimate_ase`` and
  of the kernel's ``skip`` index, with many small per-FAP kernel calls.

The ``fig5`` preset (regulated Monte Carlo) is not a workload: a fourth
workload leaves too little time per run for steady figures within the
benchmark's time budget, and its layers are measured on the others
(``estimate_op`` and the kernel on ``validation_op``, regulation tables on
``regulation_curves`` and ``ase``, thinned kernel calls on ``ase``).

The ``bench`` scale is what the benchmark measures and what
``reference.json`` was made at; ``tiny`` is a smoke scale for the
harness's own tests and has no reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("validation_op", "regulation_curves", "ase")

PRESETS = {
    "validation_op": ("fig1",),
    "regulation_curves": ("fig3", "fig4", "fig6"),
    "ase": ("fig7",),
}

# Curves whose values come from Monte Carlo.  fig7 writes its ASE curves
# with zero standard errors, but they are simulated all the same.
SIMULATED_CURVE = re.compile(r"_sim_|^fig7_")

# Preset checks seen to fail at the benchmark scale on seeds of a correct
# program (reference.json lists the failures over its own seeds; fig1's
# ordering_macro_nf30 failed on seed 406, outside them): fig1's
# bound-ordering test uses the binomial standard error, which ignores the
# drop-geometry variance, and fig7's macro-ASE test a fixed 10% spread.
# fig1's simulated curves sit only 3.2-3.6 between-seed standard deviations
# above the 3-se ordering margin at their closest points, on either tier.
# These checks are reported as advisory; every other preset check is gated.
ADVISORY_CHECK = re.compile(r"^ordering_|^macro_ase_stable_")


@dataclass(frozen=True)
class Scale:
    """Per-preset ``(n_drops, n_trials)`` and optional ``nf``/``xi`` subsets."""

    name: str
    drops_trials: dict
    nf_values: dict = field(default_factory=dict)
    xi_values: dict = field(default_factory=dict)
    setup_samples: int = 9


# Chosen so that one pass of validation_op takes a few seconds.  Many drops
# with few trials each keep the drop-geometry variance small.  The
# regulation tables, which no scale setting reaches, dominate the passes of
# ase.
BENCH = Scale(
    "bench",
    drops_trials={"fig1": (40, 80), "fig7": (6, 60)},
)

TINY = Scale(
    "tiny",
    drops_trials={"fig1": (2, 20), "fig7": (2, 10)},
    nf_values={"fig1": (30.0,), "fig4": (30.0,), "fig6": (30.0,), "fig7": (10.0,)},
    xi_values={"fig3": (15.0,), "fig7": (15.0,)},
    setup_samples=1,
)

SCALES = {s.name: s for s in (BENCH, TINY)}


def specs(workload: str, seed: int, out_dir: Path, scale: Scale = BENCH) -> list:
    """The :class:`ExperimentSpec` list one pass of ``workload`` runs."""
    from femtoshare.experiments import ExperimentSpec

    out = []
    for preset in PRESETS[workload]:
        drops, trials = scale.drops_trials.get(preset, (None, None))
        out.append(ExperimentSpec(
            preset=preset, seed=seed, out_dir=Path(out_dir),
            n_drops=drops, n_trials=trials,
            nf_values=scale.nf_values.get(preset),
            xi_values=scale.xi_values.get(preset)))
    return out

