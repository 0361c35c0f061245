import json
import os

import pytest

from lodeg import groebner
from lodeg.conormal import VarietySpec
from lodeg.poly import BlockOrder, Grevlex, Lex

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def order_key(order):
    """The monomial order as a sort key on exponent tuples, written out
    here: the oracle the packed layout of ``poly`` is tested against."""

    def grevlex(m):
        return (sum(m), tuple(-e for e in reversed(m)))

    if isinstance(order, Grevlex):
        return grevlex
    if isinstance(order, Lex):
        return tuple
    if isinstance(order, BlockOrder):
        return lambda m: grevlex(m[: order.k]) + grevlex(m[order.k :])
    raise TypeError(f"no key for the order {order!r}")


def load_spec(name: str) -> VarietySpec:
    with open(data_path(name)) as fh:
        doc = json.load(fh)
    return VarietySpec.define(
        doc["variables"],
        doc["polynomials"],
        assumed_irreducible=doc.get("assumed_irreducible", True),
    )


@pytest.fixture
def deadline_budgets(monkeypatch) -> list[float]:
    """The budget of every Groebner deadline started while the test runs."""
    budgets: list[float] = []

    class Recorded(groebner._Deadline):
        __slots__ = ()

        def __init__(self, context: str) -> None:
            super().__init__(context)
            budgets.append(self.budget)

    monkeypatch.setattr(groebner, "_Deadline", Recorded)
    return budgets


@pytest.fixture(scope="session")
def sphere() -> VarietySpec:
    return load_spec("sphere.json")


@pytest.fixture(scope="session")
def space_curve() -> VarietySpec:
    return load_spec("space_curve.json")


@pytest.fixture(scope="session")
def cubic_binomial() -> VarietySpec:
    return load_spec("cubic_binomial.json")


@pytest.fixture(scope="session")
def affine_cubic() -> VarietySpec:
    return load_spec("affine_cubic.json")


@pytest.fixture(scope="session")
def quadric_cone() -> VarietySpec:
    return load_spec("quadric_cone.json")
