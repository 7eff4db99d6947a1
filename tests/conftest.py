"""Shared corpora.

The acceptance corpus is 300 seeded random polytopes (100 each in dimensions
2, 3, 4; 80 generic hulls plus 20 origin-symmetric per dimension).  Heavy
per-body results (reports, anchor points, tightness, moments) are computed
once per session and shared by the acceptance criteria.  Each body also keeps
the time its report took, so criterion 2 can bound the report phase alone.
"""

import time
from dataclasses import dataclass

import pytest

from godbersen import (
    FeasibilityResult,
    GenSpec,
    GodbersenReport,
    Polytope,
    TightnessProfile,
    ak_feasibility,
    directional_moment,
    generate,
    godbersen_report,
    inclusion_in_nK,
    standard_simplex,
    tightness_profile,
)


def corpus_specs() -> list[GenSpec]:
    specs = []
    for dim, vc_hull, vc_sym, denom, base in (
        (2, 8, 4, 4, 20_000),
        (3, 7, 4, 3, 30_000),
        (4, 6, 4, 2, 40_000),
    ):
        for i in range(80):
            specs.append(GenSpec("random_hull", dim, vc_hull,
                                 seed=base + i, denominator_bound=denom))
        for i in range(20):
            specs.append(GenSpec("random_symmetric", dim, vc_sym,
                                 seed=base + 500 + i, denominator_bound=denom))
    return specs


@dataclass(frozen=True)
class BodyResult:
    spec: GenSpec
    body: Polytope
    report: GodbersenReport
    report_seconds: float
    anchor: FeasibilityResult
    inclusion_ok: bool
    tightness: TightnessProfile
    moments_zero: bool


@pytest.fixture(scope="session")
def corpus() -> list[tuple[GenSpec, Polytope]]:
    return [(spec, generate(spec)) for spec in corpus_specs()]


@pytest.fixture(scope="session")
def corpus_results(corpus) -> list[BodyResult]:
    results = []
    for spec, body in corpus:
        t0 = time.monotonic()
        report = godbersen_report(body)
        report_seconds = time.monotonic() - t0
        results.append(BodyResult(
            spec=spec,
            body=body,
            report=report,
            report_seconds=report_seconds,
            anchor=ak_feasibility(body),
            inclusion_ok=inclusion_in_nK(body),
            tightness=tightness_profile(body),
            moments_zero=all(directional_moment(body, f.normal) == 0
                             for f in body.facets),
        ))
    return results


@pytest.fixture(scope="session")
def simplices() -> dict[int, Polytope]:
    return {n: standard_simplex(n) for n in (2, 3, 4, 5)}
