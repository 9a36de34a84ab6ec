"""The package's parameter records are tuples that keep the contract they
had as frozen dataclasses: the same repr, the same error for each bad field,
immutability, value equality and hashing, and validation on every way in,
pickling and `_replace` included.  The expected strings and floats were
recorded from the dataclass versions."""

import copy
import pickle

import numpy as np
import pytest

from jackratio.dist import DistParams, LeadingConstant, _leading, _series_constant
from jackratio.esym import laplace_beltrami_row
from jackratio.jack import jack_product
from jackratio.mc import McConfig


@pytest.mark.parametrize("kwargs, text", [
    (dict(m=10, n=3), "DistParams(m=10, n=3, beta=1, K=None, t_max=None)"),
    (dict(m=10, n=3, beta=2, K=44), "DistParams(m=10, n=3, beta=2, K=44, t_max=None)"),
    (dict(m=60, n=5, beta=4, K=10, t_max=3), "DistParams(m=60, n=5, beta=4, K=10, t_max=3)"),
    (dict(m=6, n=3), "McConfig(m=6, n=3, beta=1, replications=1, seed=0, "
                     "statistic='one_minus_ratio')"),
    (dict(m=25, n=2, beta=4, replications=100, seed=7, statistic="ratio"),
     "McConfig(m=25, n=2, beta=4, replications=100, seed=7, statistic='ratio')"),
])
def test_repr(kwargs, text):
    record = (McConfig if text.startswith("McConfig") else DistParams)(**kwargs)
    assert repr(record) == text


def test_numpy_integers_are_stored_as_ints():
    params = DistParams(m=np.int64(10), n=np.int32(3), K=np.int64(7))
    assert repr(params) == "DistParams(m=10, n=3, beta=1, K=7, t_max=None)"
    cfg = McConfig(m=np.int64(6), n=3, seed=np.uint32(5))
    assert [type(v) for v in (cfg.m, cfg.seed)] == [int, int]


@pytest.mark.parametrize("kwargs, message", [
    (dict(m=10.0, n=3), "m must be an integer, got 10.0"),
    (dict(m=10, n=True), "n must be an integer, got True"),
    (dict(m=10, n=3, beta="2"), "beta must be an integer, got '2'"),
    (dict(m=10, n=3, K=1.5), "K must be an integer, got 1.5"),
    (dict(m=10, n=3, t_max=-1), "t_max must be nonnegative"),
    (dict(m=10, n=3, K=-1), "K must be nonnegative"),
    (dict(m=10, n=3, beta=3), "beta must be 1, 2 or 4"),
    (dict(m=3, n=3), "need m > n >= 2"),
    (dict(m=10, n=1), "need m > n >= 2"),
    # the first failing check names the error
    (dict(m=10.0, n=3, K=-1, beta=3), "m must be an integer, got 10.0"),
    (dict(m=3, n=3, beta=3), "beta must be 1, 2 or 4"),
    (dict(m=3, n=3, K=-2), "K must be nonnegative"),
])
def test_dist_params_errors(kwargs, message):
    with pytest.raises(ValueError) as info:
        DistParams(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", [
    (dict(m=6.0, n=3), "m must be an integer, got 6.0"),
    (dict(m=6, n=3, beta=True), "beta must be an integer, got True"),
    (dict(m=6, n=3, replications=None), "replications must be an integer, got None"),
    (dict(m=6, n=3, seed=None), "seed must be an integer, got None"),
    (dict(m=6, n=3, seed=-1), "seed must be nonnegative, got -1"),
    (dict(m=3, n=3), "need m > n >= 2"),
    (dict(m=6, n=3, beta=3),
     "sampling supports beta = 1 (real), 2 (complex) and 4 (quaternion)"),
    (dict(m=6, n=3, replications=0), "need at least one replication"),
    (dict(m=6, n=3, statistic="x"), "statistic must be 'ratio' or 'one_minus_ratio'"),
    (dict(m=3, n=3, seed=-1), "seed must be nonnegative, got -1"),
    (dict(m=6, n=3, beta=3, replications=0, statistic="x"),
     "sampling supports beta = 1 (real), 2 (complex) and 4 (quaternion)"),
])
def test_mc_config_errors(kwargs, message):
    with pytest.raises(ValueError) as info:
        McConfig(**kwargs)
    assert str(info.value) == message


RECORDS = [
    (DistParams, dict(m=10, n=3, beta=2, K=44), dict(m=3)),
    (McConfig, dict(m=25, n=2, replications=100, seed=7), dict(seed=-1)),
]


@pytest.mark.parametrize("cls, kwargs, bad", RECORDS)
def test_fields_cannot_be_assigned(cls, kwargs, bad):
    record = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, kwargs, bad", RECORDS)
def test_equal_records_hash_alike(cls, kwargs, bad):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != cls(**{**kwargs, "m": kwargs["m"] + 1})


@pytest.mark.parametrize("cls, kwargs, bad", RECORDS)
def test_pickle_round_trip(cls, kwargs, bad):
    record = cls(**kwargs)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert twin == record and type(twin) is cls


@pytest.mark.parametrize("cls, kwargs, bad", RECORDS)
def test_tuple_ways_in_revalidate(cls, kwargs, bad):
    record = cls(**kwargs)
    # the records are tuples: they iterate and equal the plain tuple
    assert record == tuple(record) == tuple(record._asdict().values())
    assert record._replace() == record
    with pytest.raises(ValueError):
        record._replace(**bad)
    # a record built around the checks does not survive a pickle round trip
    invalid = tuple.__new__(cls, {**record._asdict(), **bad}.values())
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(invalid))


@pytest.mark.parametrize("m, n, beta, sign, log_abs, c", [
    (10, 3, 1, 1, -0.8471982758789167, 1.0),
    (10, 3, 2, 1, 0.19329245933064954, 1.0),
    (105, 2, 1, 1, 2.5649493574615367, 1.0),
    (7, 3, 1, 1, -1.909292723168837, 0.5773502691896257),
    (25, 2, 1, 1, 1.0986122886681098, 1.0),
])
def test_leading_constant_sign_and_log_abs(m, n, beta, sign, log_abs, c):
    const = _leading(*_series_constant(m, n, beta), n)
    assert (const.sign, const.log_abs, const.c) == (sign, log_abs, c)


def test_leading_constant_sign_of_each_factor():
    assert LeadingConstant(-3, -0.5).sign == 1
    assert LeadingConstant(-3, 0.5).sign == -1
    assert LeadingConstant(0, 1.0).sign == 0


def test_symbolic_records_are_tuples_of_their_fields():
    row = laplace_beltrami_row((2, 1), 1, 3)
    assert row == (row.source, row.beta, row.m, row.entries)
    product = jack_product((1,), (1,), 1, 2)
    assert product.as_dict() == dict(product.terms)
