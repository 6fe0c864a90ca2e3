"""The library's value types: immutable slotted records on one base.

Each of the fourteen types is checked for its repr (the same text a frozen
dataclass printed), equality and hashing by class and fields, refusal of
assignment and deletion, construction by keyword and with defaults,
pickle and copy round trips, and positional ``match``.
"""

import copy
import pickle

import pytest

from ribbonsurf import (
    Cancel,
    CayleyBall,
    ClassificationResult,
    ContractEdge,
    CutGlue,
    DartBijection,
    DeleteEdge,
    DiscretePath,
    MoveTrace,
    Presentation,
    PreconditionError,
    SurfaceReport,
    UnknownLabelError,
    cayley_ball,
    classify,
    free_presentation,
    is_trivial_word,
    parse_word,
    random_filling_map,
    surface_group,
)
from ribbonsurf.cli import CommandResult
from ribbonsurf.io import GraphDocument
from ribbonsurf.surfaces import Face

COMMUTATOR = (("a", 1), ("b", 1), ("a", -1), ("b", -1))

# (class, keyword arguments, pinned repr), one or more per type
CASES = [
    (Face, dict(darts=(0, 3, 1)), "Face(darts=(0, 3, 1))"),
    (SurfaceReport,
     dict(num_vertices=1, num_edges=2, num_faces=1, euler_characteristic=0,
          genus=1, face_words=()),
     "SurfaceReport(num_vertices=1, num_edges=2, num_faces=1, "
     "euler_characteristic=0, genus=1, face_words=())"),
    (DeleteEdge, dict(label="e1"), "DeleteEdge(label='e1')"),
    (ContractEdge, dict(label="e2"), "ContractEdge(label='e2')"),
    (Cancel, dict(label="a"), "Cancel(label='a')"),
    (CutGlue, dict(new_label="x1", old_label="a", cut=(1, 3), chord_sign=-1),
     "CutGlue(new_label='x1', old_label='a', cut=(1, 3), chord_sign=-1)"),
    (MoveTrace, dict(moves=(DeleteEdge("a"), Cancel("b"))),
     "MoveTrace(moves=(DeleteEdge(label='a'), Cancel(label='b')))"),
    (ClassificationResult,
     dict(genus=0, canonical_word=None, trace=MoveTrace((ContractEdge("e"),))),
     "ClassificationResult(genus=0, canonical_word=None, "
     "trace=MoveTrace(moves=(ContractEdge(label='e'),)))"),
    (DartBijection, dict(mapping=(1, 0)), "DartBijection(mapping=(1, 0))"),
    (Presentation, dict(generators=("a", "b"), relators=(COMMUTATOR,)),
     "Presentation(generators=('a', 'b'), relators=((('a', 1), ('b', 1), "
     "('a', -1), ('b', -1)),))"),
    (DiscretePath, dict(darts=(0, 2), start=0),
     "DiscretePath(darts=(0, 2), start=0)"),
    (GraphDocument,
     dict(edges=("a",), rotations=(("a+", "a-"),), name="loop", comment="c"),
     "GraphDocument(edges=('a',), rotations=(('a+', 'a-'),), name='loop', "
     "comment='c')"),
    (CayleyBall,
     dict(presentation=free_presentation(1), radius=0, vertices=((),),
          edges=(), cells=()),
     "CayleyBall(presentation=Presentation(generators=('a',), relators=()), "
     "radius=0, vertices=((),), edges=(), cells=())"),
    (CommandResult, dict(exit_code=0, output="genus: 1"),
     "CommandResult(exit_code=0, output='genus: 1')"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_value_type_is_covered():
    assert len({cls for cls, _, _ in CASES}) == 14


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_pinned_repr(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_fields_in_order_by_position_and_keyword(cls, kwargs, text):
    assert cls.__match_args__ == tuple(kwargs)
    by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
    assert by_keyword == by_position
    assert [getattr(by_keyword, name) for name in kwargs] == list(kwargs.values())


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_equality_and_hash_by_class_and_fields(cls, kwargs, text):
    value, twin = cls(**kwargs), cls(**kwargs)
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(kwargs.values()))
    assert len({value, twin}) == 1
    assert value != tuple(kwargs.values())
    assert value.__eq__(tuple(kwargs.values())) is NotImplemented
    changed = dict(kwargs, **{next(iter(kwargs)): ("changed",)})
    if cls is not Presentation:  # its generators are validated
        assert cls(**changed) != value


def test_same_fields_in_another_class_differ():
    assert DeleteEdge("a") != ContractEdge("a")
    assert Cancel("a") != DeleteEdge("a") != DeleteEdge("b")
    assert DeleteEdge("a") == DeleteEdge("a")
    assert len({DeleteEdge("a"), ContractEdge("a"), Cancel("a")}) == 3


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, kwargs, text):
    value = cls(**kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)


def test_defaults():
    assert DiscretePath() == DiscretePath((), None) == DiscretePath(darts=())
    assert repr(DiscretePath()) == "DiscretePath(darts=(), start=None)"
    assert repr(DiscretePath((), start=0)) == "DiscretePath(darts=(), start=0)"
    assert MoveTrace() == MoveTrace(()) and len(MoveTrace()) == 0
    doc = GraphDocument(("a",), (("a+", "a-"),))
    assert (doc.name, doc.comment) == (None, None)
    assert doc == GraphDocument(edges=("a",), rotations=(("a+", "a-"),),
                                name=None, comment=None)
    for cls, args in [(Face, ()), (DeleteEdge, ()), (CommandResult, (0,)),
                      (Presentation, (("a",),))]:
        with pytest.raises(TypeError):
            cls(*args)


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, kwargs, text):
    value = cls(**kwargs)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is cls
        assert clone == value and repr(clone) == text


def test_round_trips_of_computed_values():
    result = classify(random_filling_map(2, 12, 5))
    ball = cayley_ball(surface_group(2), 1)
    for value in (result, ball):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_match_by_position(cls, kwargs, text):
    first = next(iter(kwargs.values()))
    match cls(**kwargs):
        case cls(found):
            assert found == first
        case _:
            pytest.fail("class pattern did not match")


def test_match_every_field_by_position():
    def fields(value):
        match value:
            case CutGlue(new, old, (i, j), sign):
                return new, old, i, j, sign
            case DiscretePath((), start):
                return start
            case [DeleteEdge(deleted), ContractEdge(contracted)]:
                return deleted, contracted
        return None

    assert fields(CutGlue("x1", "a", (1, 3), -1)) == ("x1", "a", 1, 3, -1)
    assert fields(DiscretePath((), start=4)) == 4
    assert fields(DiscretePath((0,), start=4)) is None
    assert fields([DeleteEdge("a"), ContractEdge("b")]) == ("a", "b")
    assert fields([ContractEdge("a"), DeleteEdge("b")]) is None


def test_presentation_validates_its_generators():
    with pytest.raises(PreconditionError, match="duplicate generator"):
        Presentation(("a", "a"), ())
    with pytest.raises(UnknownLabelError, match="unknown generator 'c'"):
        Presentation(("a", "b"), ((("c", 1),),))


def test_presentation_keeps_one_solver_outside_its_fields():
    pres = surface_group(2)
    solver = pres._solver
    assert pres._solver is solver
    assert is_trivial_word(parse_word("abABcdCD"), pres)
    assert pres._solver is solver
    twin = Presentation(pres.generators, pres.relators)
    assert twin == pres and hash(twin) == hash(pres) and repr(twin) == repr(pres)
    clone = pickle.loads(pickle.dumps(pres))
    assert clone == pres and clone._solver is not solver
