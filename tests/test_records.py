"""The closed-form records: slotted, immutable, comparable, picklable."""
from __future__ import annotations

import pickle

import pytest

from cancelput.errors import InvalidParams
from cancelput.model import ModelParams
from cancelput.pricer import Contract, PriceReport, Region
from cancelput.scale import ScaleBasis

MODEL_ARGS = (0.05, 0.2, 5.0, 2.0, 1.6, -0.9)
MODEL_KW = dict(r=0.05, sigma2=0.2, lam=5.0, rho=2.0, mu=1.6, alpha=-0.9)


def records():
    return [
        ModelParams(*MODEL_ARGS),
        ScaleBasis((1.0, -19.1, -0.05), (1.4, -0.4, -0.9)),
        Contract(100.0, 120.0, 110.0),
        PriceReport(63.2, 19.0, 0.1, 0.85, Region.CONTINUATION),
    ]


def test_positional_and_keyword_construction_agree():
    assert ModelParams(*MODEL_ARGS) == ModelParams(**MODEL_KW)
    assert ScaleBasis((1.0, -2.0), (0.5, -0.5)) == ScaleBasis(eta=(1.0, -2.0), c=(0.5, -0.5))
    assert Contract(100.0, 120.0, 110.0) == Contract(strike=100.0, barrier=120.0, spot=110.0)
    assert PriceReport(1.0, 2.0, 0.3, 0.4, Region.EXERCISE) == PriceReport(
        a_star=1.0, value=2.0, creeping_factor=0.3, undershoot_factor=0.4, region=Region.EXERCISE
    )
    m = ModelParams(**MODEL_KW)
    assert [getattr(m, k) for k in MODEL_KW] == list(MODEL_ARGS)
    with pytest.raises(TypeError):
        ModelParams(*MODEL_ARGS[:-1])


@pytest.mark.parametrize("rec", records(), ids=lambda rec: type(rec).__name__)
def test_fields_cannot_be_set_added_or_deleted(rec):
    name = rec.__slots__[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, before)
    with pytest.raises(AttributeError):
        rec.extra = 1.0
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert getattr(rec, name) == before
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("rec", records(), ids=lambda rec: type(rec).__name__)
def test_every_field_refuses_set_and_delete(rec):
    for name in rec.__slots__:
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is before


#: Positional arguments that differ field to field: a setter wired to the
#: wrong slot shows as an argument read back from the wrong field.
POSITIONAL = [
    (ModelParams, MODEL_ARGS),
    (ScaleBasis, ((1.0, -19.1, -0.05), (1.4, -0.4, -0.9))),
    (Contract, (100.0, 120.0, 110.0)),
    (PriceReport, (63.2, 19.0, 0.1, 0.85, Region.CONTINUATION)),
]


@pytest.mark.parametrize("cls, args", POSITIONAL, ids=[cls.__name__ for cls, _ in POSITIONAL])
def test_every_field_reads_back_its_own_argument(cls, args):
    assert len(cls.__slots__) == len(args) == len({repr(x) for x in args})
    rec = cls(*args)
    for name, arg in zip(cls.__slots__, args):
        assert getattr(rec, name) is arg, name


def test_equality_hash_and_repr():
    a, b = Contract(100.0, 120.0, 110.0), Contract(100.0, 120.0, 110.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Contract(100.0, 120.0, 111.0)
    # Same values under another type are not equal.
    assert ScaleBasis((1.0,), (2.0,)) != ((1.0,), (2.0,))
    assert repr(a) == "Contract(strike=100.0, barrier=120.0, spot=110.0)"
    assert repr(ModelParams(**MODEL_KW)) == (
        "ModelParams(r=0.05, sigma2=0.2, lam=5.0, rho=2.0, mu=1.6, alpha=-0.9)"
    )
    assert repr(PriceReport(1.0, 2.0, 0.3, 0.4, Region.EXERCISE)) == (
        "PriceReport(a_star=1.0, value=2.0, creeping_factor=0.3, undershoot_factor=0.4, "
        "region=<Region.EXERCISE: 'Exercise'>)"
    )


@pytest.mark.parametrize("rec", records(), ids=lambda rec: type(rec).__name__)
def test_pickle_round_trip(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert back == rec and repr(back) == repr(rec)


def test_replace_builds_through_init():
    c = Contract(100.0, 120.0, 110.0)
    moved = c._replace(spot=90.0)
    assert moved == Contract(100.0, 120.0, 90.0) and c.spot == 110.0
    with pytest.raises(InvalidParams, match="spot must be positive"):
        c._replace(spot=-1.0)
    with pytest.raises(TypeError):
        c._replace(sport=90.0)
    m = ModelParams(**MODEL_KW)
    assert m._replace(alpha=0.6) == ModelParams(**{**MODEL_KW, "alpha": 0.6})


def test_direct_model_construction_skips_validation():
    # Only make_model validates: a bundle no model would produce still builds.
    m = ModelParams(r=-1.0, sigma2=0.0, lam=-5.0, rho=0.0, mu=float("nan"), alpha=0.6)
    assert m.r == -1.0 and m.alpha == 0.6
