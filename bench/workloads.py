"""The benchmark's forms, its workloads and the seeded change of coordinates.

Every form is built here from the package's constructors, so the benchmark
keeps its inputs fixed when the test corpus changes.  The first thirteen
forms repeat ``tests/conftest.py::build_corpus()`` as it stood when the
benchmark was written.

A workload seed picks, for each form, a diagonal change of coordinates
z_i -> s_i z_i with s_i in ``SCALES``.  Every verdict, splitting type and
Betti table is invariant under it, and so is every step of the engine: the
change maps each monomial to a multiple of itself, so leading terms, pairs
and zero reductions are the same, and only the coefficients differ.  Seed 0
leaves every form exactly as named.

The seed does not permute the variables.  A permutation moves the time of
a form by up to 40% either way, which is wider than the benchmark's bounds,
and under 2 of the 24 permutations (0,3,1,2) and (1,3,0,2)
``exceptional-d3`` trips the resolution fault, so that its failure would
depend on the seed.  The fault is kept, seed-free, as the form
``exceptional-d3-relabelled``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from foliations.forms import (
    ProjectiveOneForm,
    apply_projectivity,
    exceptional_form,
    logarithmic_form,
    pullback_from_plane,
    validate,
)
from foliations.rings import PolyRing

# Small, so that coefficient size, and with it the time of a form, depends
# little on the seed.
SCALES = (1, -1, 2, -2)

RELABEL_0312 = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
"""z0 -> z0, z1 -> z3, z2 -> z1, z3 -> z2: the relabelling (0,3,1,2)."""

MOVE_EXCEPTIONAL_D2 = ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 2, 1))


def named_forms() -> dict[str, ProjectiveOneForm]:
    R = PolyRing(4)
    z = R.variables()
    P = PolyRing(3)
    w = P.variables()
    quadric = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 + z[3] ** 2
    cubic = z[0] ** 3 + z[1] ** 3 + z[2] ** 3 + z[3] ** 3
    conic = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
    plane1 = logarithmic_form(w, [1, 1, -2])
    plane2 = logarithmic_form([w[0], w[1], conic], [1, 1, -1])
    plane3 = logarithmic_form(
        [w[0], w[1], w[2], w[0] + w[1] + w[2], w[0] - w[2]], [1, 1, 1, 1, -4]
    )
    plane3b = logarithmic_form([w[0], w[1], w[2], conic], [1, 1, 2, -2])
    exceptional2 = exceptional_form(2)
    exceptional3 = exceptional_form(3)
    return {
        # tests/conftest.py::build_corpus()
        "pencil": validate([z[1], -z[0], R.zero(), R.zero()]),
        "pencil-z0z3": validate([z[3], R.zero(), R.zero(), -z[0]]),
        "pullback-d0": pullback_from_plane(validate([w[1], -w[0], P.zero()])),
        "pullback-d1": pullback_from_plane(plane1),
        "cone-L111": logarithmic_form([z[0], z[1], z[2]], [1, 1, -2]),
        "L1111": logarithmic_form(z, [1, 1, 1, -3]),
        "L1111-alt": logarithmic_form(z, [1, -1, 1, -1]),
        "L1111-generic": logarithmic_form(z, [2, 3, 5, -10]),
        "L112": logarithmic_form([z[0], z[1], quadric], [1, 1, -1]),
        "pullback-d2": pullback_from_plane(plane2),
        "exceptional-d2": exceptional2,
        "L1112": logarithmic_form([z[0], z[1], z[2], z[3] ** 2 + z[0] * z[1]], [1, 1, 2, -2]),
        "pullback-d3": pullback_from_plane(plane3),
        # larger forms
        "L22": logarithmic_form([quadric, z[0] * z[1] + z[2] * z[3]], [1, -1]),
        "L113": logarithmic_form([z[0], z[1], cubic], [1, 2, -1]),
        "L1113": logarithmic_form([z[0], z[1], z[2], cubic], [1, 1, 1, -1]),
        "pullback-d3b": pullback_from_plane(plane3b),
        "exceptional-d3": exceptional3,
        "exceptional-d3-relabelled": apply_projectivity(exceptional3, RELABEL_0312),
        "exceptional-d2-moved": apply_projectivity(exceptional2, MOVE_EXCEPTIONAL_D2),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    forms: tuple[str, ...]


CORPUS_THAT_FINISHES = (
    "pencil", "pencil-z0z3", "pullback-d0", "pullback-d1", "cone-L111", "L1111",
    "L1111-alt", "L1111-generic", "L112", "pullback-d2", "exceptional-d2", "L1112",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-batch",
            CORPUS_THAT_FINISHES + ("L22", "L113", "exceptional-d3-relabelled"),
        ),
        Workload(
            "determine-split",
            tuple(n for n in CORPUS_THAT_FINISHES if n != "L112")
            + ("L22", "exceptional-d3", "pullback-d3b"),
        ),
        Workload(
            "resolution-heavy",
            ("exceptional-d3", "L1113", "pullback-d3b", "pullback-d3", "exceptional-d2-moved"),
        ),
    )
}


def coordinate_change(seed: int, name: str) -> tuple[tuple[int, ...], ...]:
    """The diagonal matrix the seed picks for one form; identity for seed 0."""
    rng = random.Random(f"{seed}:{name}")
    scales = [rng.choice(SCALES) if seed else 1 for _ in range(4)]
    return tuple(tuple(scales[i] if j == i else 0 for j in range(4)) for i in range(4))


def build(workload: Workload, seed: int) -> list[tuple[str, ProjectiveOneForm]]:
    """The workload's forms, each moved by the change its seed picks."""
    named = named_forms()
    return [
        (name, apply_projectivity(named[name], coordinate_change(seed, name)))
        for name in workload.forms
    ]


def form_text(name: str, form: ProjectiveOneForm) -> str:
    """The form as a .form file, every coefficient written out with its sign.

    ``print_form_file`` writes a leading term with coefficient -1 as
    ``-z0^2*z1``, which the parser reads as ``(-z0)^2*z1``; so the files are
    written here, in a layout that the parser reads back exactly.
    """
    parts = []
    for i, f in enumerate(form.coefficients):
        if f.is_zero():
            continue
        terms = []
        for e, c in f.terms:
            mono = "".join(f"*z{v}^{k}" for v, k in enumerate(e) if k)
            terms.append(f"{'-' if c < 0 else '+'} {abs(c)}{mono}")
        body = " ".join(terms)
        body = body[2:] if body.startswith("+ ") else "-" + body[2:]
        parts.append(f"({body}) dz{i}")
    return (
        f"ring z0 z1 z2 z3\nname {name}\nexpected-degree {form.degree}\n"
        f"form {' + '.join(parts)}\n"
    )
