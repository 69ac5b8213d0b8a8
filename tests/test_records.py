"""The frozen-record semantics of the result types, and the CLI's cold imports."""

import os
import pickle
import subprocess
import sys

import pytest

import bbraag
from bbraag.enumeration import ScanReport
from bbraag.errors import DomainError
from bbraag.graphs import Dismantling
from bbraag.homology import SimplicialComplex, flag_complex
from bbraag.invariants import ConeStrip, InequalityOutcome, invariant_report
from bbraag.patterns import path_graph
from bbraag.recognition import (
    BuildStep,
    ChordalityResult,
    DromsLeaf,
    PtolemaicSequence,
    replay_ptolemaic,
)


def test_equality_and_hash_by_class_and_fields():
    step = BuildStep("leaf", "b", "a")
    same = BuildStep(kind="leaf", vertex="b", attached_to="a")
    assert step == same and hash(step) == hash(same) and step is not same
    assert step != BuildStep("twin", "b", "a")
    assert len({step, same, BuildStep("leaf", "c", "a")}) == 2
    # the same field tuple in another class
    assert DromsLeaf("a") != ConeStrip("a") and ConeStrip("a") == ConeStrip("a")
    assert step != ("leaf", "b", "a")
    # a dict field makes the record unhashable, as it makes its field tuple
    report = invariant_report(path_graph(3))
    assert report == invariant_report(path_graph(3))
    with pytest.raises(TypeError):
        hash(report)


def test_repr_names_every_field():
    step = BuildStep("leaf", "b", "a")
    assert repr(step) == "BuildStep(kind='leaf', vertex='b', attached_to='a')"
    assert repr(ChordalityResult(True)) == (
        "ChordalityResult(chordal=True, elimination_order=None, witness=None)"
    )
    seq = PtolemaicSequence("a", (BuildStep("leaf", "b", "x"),))
    with pytest.raises(DomainError) as err:
        replay_ptolemaic(seq)
    assert str(err.value) == (
        "invalid build step BuildStep(kind='leaf', vertex='b', attached_to='x')"
    )


def test_fields_cannot_be_set_or_deleted():
    out = InequalityOutcome("turan_nonneg", True)
    for name in ("name", "lhs", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(out, name, 1)
        with pytest.raises(AttributeError):
            delattr(out, name)
    assert out.name == "turan_nonneg" and not hasattr(out, "not_a_field")


def test_defaults_and_required_fields():
    out = InequalityOutcome("turan_nonneg", False)
    assert (out.reason, out.lhs, out.rhs, out.passed, out.note) == ("", None, None, None, "")
    assert out == InequalityOutcome("turan_nonneg", False, "", None, None, None, "")
    assert ChordalityResult(False).witness is None
    with pytest.raises(TypeError):
        InequalityOutcome("turan_nonneg")
    with pytest.raises(TypeError):
        BuildStep("leaf", "b", "a", "extra")
    with pytest.raises(TypeError):
        BuildStep("leaf", "b", attached_to="a", kind="twin")


def test_json_key_order_is_field_order():
    rep = ScanReport("turan_nonneg", "Z", 4, 10, 9, 8, ("C~",))
    assert list(rep.to_json()) == [
        "predicate", "ring", "max_vertices", "examined", "applicable", "passed",
        "failing", "failed", "skipped",
    ]
    assert list(InequalityOutcome("x", True).to_json()) == [
        "name", "applicable", "reason", "lhs", "rhs", "passed", "note",
    ]


def test_pickle_round_trip():
    # scan workers send their results across processes
    report = invariant_report(path_graph(4))
    for value in (report, ScanReport("turan_nonneg", "Z", 4, 10, 9, 8, ("C~",)), report.rings[0]):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and back is not value and repr(back) == repr(value)
        assert back.to_json() == value.to_json()
    c = flag_complex(path_graph(4))
    back = pickle.loads(pickle.dumps(c))
    assert back == c and back.dismantling == c.dismantling


def test_complex_ignores_its_dismantling():
    c = flag_complex(path_graph(4))
    bare = SimplicialComplex(c.labels, c.faces)
    other = SimplicialComplex(c.labels, c.faces, Dismantling((), (1 << 4) - 1))
    assert c.dismantling is not None and bare.dismantling is None
    assert c == bare == other and hash(c) == hash(bare) == hash(other)
    assert repr(c) == repr(bare) == f"SimplicialComplex(labels={c.labels!r}, faces={c.faces!r})"


def test_cached_attributes_are_computed_once():
    c = flag_complex(path_graph(4))
    assert "core" not in vars(c)
    core = c.core
    assert vars(c)["core"] is core and c.core is core
    assert core.face_count(0) == 1 and c.core.core is core
    factors = c.boundary_factors
    assert c.boundary_factors is factors
    assert c == SimplicialComplex(c.labels, c.faces)


def imported_modules(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bbraag.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


def test_cli_cold_start_skips_dataclasses_and_inspect():
    # Against a bare interpreter, since site may already load typing and more.
    added = imported_modules("import bbraag.cli") - imported_modules("pass")
    assert "bbraag.cli" in added and "bbraag.invariants" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
