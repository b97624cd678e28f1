"""Shared fixtures: bundled tables, constructed edge-case tables and a
recorder of the GLM layer's Newton runs."""

import dataclasses
import inspect

import pytest

from rothman import glm
from rothman.tables import CohortCell, StratifiedCohortTable
from rothman.whickham import (six_strata_table, whickham_crude_table,
                              whickham_table)


@pytest.fixture(scope="session")
def whickham():
    return whickham_table()


@pytest.fixture(scope="session")
def whickham_crude():
    return whickham_crude_table()


@pytest.fixture(scope="session")
def six_strata():
    return six_strata_table()


@pytest.fixture(scope="session")
def identical_strata_table():
    """Two strata with identical risk pairs (0.1, 0.2)."""
    return StratifiedCohortTable(strata=(
        ("a", CohortCell(exposed_cases=30, exposed_total=150,
                         unexposed_cases=10, unexposed_total=100)),
        ("b", CohortCell(exposed_cases=60, exposed_total=300,
                         unexposed_cases=20, unexposed_total=200)),
    ))


@pytest.fixture(scope="session")
def interior_crude_k3_table():
    """Three strata, exposure prevalence varies, crude inside the hull."""
    return StratifiedCohortTable(strata=(
        ("s1", CohortCell(exposed_cases=120, exposed_total=200,
                          unexposed_cases=160, unexposed_total=800)),
        ("s2", CohortCell(exposed_cases=50, exposed_total=500,
                          unexposed_cases=250, unexposed_total=500)),
        ("s3", CohortCell(exposed_cases=560, exposed_total=800,
                          unexposed_cases=160, unexposed_total=200)),
    ))


@pytest.fixture(scope="session")
def zero_exposed_cases_table():
    """One stratum has zero exposed cases, so GLM fits hit the boundary."""
    return StratifiedCohortTable(strata=(
        ("a", CohortCell(exposed_cases=0, exposed_total=200,
                         unexposed_cases=50, unexposed_total=200)),
        ("b", CohortCell(exposed_cases=30, exposed_total=100,
                         unexposed_cases=40, unexposed_total=100)),
    ))


def build_table(rows):
    """rows: (label, exposed_cases, exposed_total, unexposed_cases, unexposed_total)."""
    return StratifiedCohortTable(strata=tuple(
        (label, CohortCell(exposed_cases=ec, exposed_total=et,
                           unexposed_cases=uc, unexposed_total=ut))
        for label, ec, et, uc, ut in rows))


@pytest.fixture(scope="session")
def make_table():
    return build_table


def scale_counts(table, c):
    """The same table with every count multiplied by c."""
    return StratifiedCohortTable(strata=tuple(
        (label, CohortCell(exposed_cases=c * cell.exposed_cases,
                           exposed_total=c * cell.exposed_total,
                           unexposed_cases=c * cell.unexposed_cases,
                           unexposed_total=c * cell.unexposed_total))
        for label, cell in table.strata))


@pytest.fixture(scope="session")
def scale_table():
    return scale_counts


@pytest.fixture(scope="session")
def independence_tables():
    """The four {confounded} x {risk-difference modified} combinations.

    Keys: (confounded, modified). Risk pairs are chosen so that equal
    exposure prevalence puts the crude point exactly on the segment.
    """
    return {
        (False, False): build_table([
            ("a", 30, 100, 20, 100), ("b", 50, 100, 40, 100)]),
        (True, False): build_table([
            ("a", 30, 100, 40, 200), ("b", 100, 200, 40, 100)]),
        (False, True): build_table([
            ("a", 30, 100, 20, 100), ("b", 70, 100, 40, 100)]),
        (True, True): build_table([
            ("a", 97, 533, 65, 539), ("b", 42, 49, 165, 193)]),
    }


@dataclasses.dataclass
class IrlsCall:
    """One run of the GLM layer's Newton core (`glm._newton`): a run of
    no-interaction fits, or one of endpoint problems (``joint``).

    ``strata`` counts the rows of the stack it was given; ``iterations``
    counts its passes; ``errors`` has each problem's error, None if it
    converged, and ``failed`` one flag a problem."""

    joint: bool
    strata: int
    iterations: int
    errors: list

    @property
    def failed(self) -> list[bool]:
        return [error is not None for error in self.errors]


class IrlsRecorder:
    """Records every `glm._newton` run in ``calls``, an endpoint run told by
    its ``cut``, both it and the ``stack`` read by name from the arguments
    bound to `glm._newton`'s signature."""

    def __init__(self, monkeypatch):
        self.calls: list[IrlsCall] = []
        newton = glm._newton
        signature = inspect.signature(newton)

        def recorded(*args, **kwargs):
            run = newton(*args, **kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            self.calls.append(IrlsCall(
                arguments.get("cut") is not None, len(arguments["stack"].s),
                run.iterations, run.errors))
            return run

        monkeypatch.setattr(glm, "_newton", recorded)

    @property
    def joint_calls(self) -> list[IrlsCall]:
        return [call for call in self.calls if call.joint]


@pytest.fixture
def irls_recorder(monkeypatch):
    return IrlsRecorder(monkeypatch)
