"""Value types: records are immutable named tuples that validate whenever they
are built; TruncatedSeries and JointAmplitudes are read-only and compare by
identity."""
import copy
import pickle

import pytest

from fockseries import (
    AdaptiveTruncation,
    BeamSplitterSetting,
    FixedTruncation,
    InvalidParameter,
    StateSpec,
    SweepRequest,
    linear_entropy,
    penson_solomon_state,
    photon_statistics,
    split,
    truncate,
)
from fockseries.oracle import PrecisionConfig
from fockseries.sweep import PRESETS, Preset

SPEC = penson_solomon_state(0.5, 3, 0.5)
SERIES_FIELDS = ("spec", "rel_log_weights", "anchor", "tail_bound_rel", "converged")
AMPLITUDE_FIELDS = ("matrix", "norm_tol", "spec")


def records():
    """One instance of every record type, built by its public constructor."""
    series = truncate(SPEC, AdaptiveTruncation())
    return [SPEC, AdaptiveTruncation(), FixedTruncation(10), photon_statistics(series),
            BeamSplitterSetting(), linear_entropy(series),
            SweepRequest("mandel_q", 0.5, 3, "out.csv"), PRESETS["fig2"].curves[0],
            PRESETS["fig2"], PrecisionConfig()]


def containers():
    """A deferred series, one holding its weights, and the amplitudes of a split."""
    fixed = truncate(SPEC, FixedTruncation(10))
    return [(truncate(SPEC, AdaptiveTruncation()), SERIES_FIELDS), (fixed, SERIES_FIELDS),
            (split(fixed), AMPLITUDE_FIELDS)]


FIELD_CASES = [(r, r._fields) for r in records()] + containers()


@pytest.mark.parametrize("obj, fields", FIELD_CASES,
                         ids=[type(obj).__name__ for obj, _ in FIELD_CASES])
def test_fields_cannot_be_set_or_deleted(obj, fields):
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_compare_by_value(record):
    """A record rebuilt from its fields, copied or unpickled equals the
    original; all but a Preset, whose assumptions are a mapping, hash alike."""
    for twin in (type(record)(*record), copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)
        if not isinstance(record, Preset):
            assert hash(twin) == hash(record)


def test_state_spec_is_a_dict_key():
    values = {SPEC: "q=0.5"}
    assert values[StateSpec(alpha_abs=0.5, k=3, q=0.5)] == "q=0.5"
    assert StateSpec(0.5, 3) not in values
    alpha, k, q = SPEC
    assert (alpha, k, q) == (0.5, 3, 0.5)


def test_containers_compare_by_identity():
    for obj, _ in containers():
        assert obj == obj and obj != copy.copy(obj)
    assert truncate(SPEC, AdaptiveTruncation()) != truncate(SPEC, AdaptiveTruncation())


@pytest.mark.parametrize("record, changes", [
    (SPEC, {"k": -1}),
    (SPEC, {"alpha_abs": float("nan")}),
    (AdaptiveTruncation(), {"rel_tol": 2.0}),
    (FixedTruncation(10), {"n_max": True}),
    (BeamSplitterSetting(), {"theta": 0.0}),
    (SweepRequest("mandel_q", 0.5, 3, "out.csv"), {"steps": 1}),
    (PrecisionConfig(), {"mantissa_bits": 64}),
])
def test_replace_revalidates(record, changes):
    with pytest.raises(InvalidParameter):
        record._replace(**changes)


def test_replace_and_make_normalize_like_the_constructor():
    assert type(SPEC._replace(alpha_abs=1).alpha_abs) is float
    assert SPEC._replace(q=1) == StateSpec(0.5, 3, 1.0)
    assert StateSpec._make([2, 0, 1]) == StateSpec(2.0, 0)
    with pytest.raises(InvalidParameter):
        StateSpec._make([1.0, 2_000_001, 1.0])
    request = SweepRequest("mandel_q", 0.5, 3, "out.csv")._replace(alpha_max=2)
    assert type(request.alpha_max) is float


def test_preset_assumptions_are_read_only():
    """Editing a preset's assumptions raised no error and rewrote every later
    manifest of that preset in the process; now the mapping refuses edits, and
    a Preset keeps a copy of the mapping it is given."""
    with pytest.raises(TypeError):
        PRESETS["fig2"].assumptions["q"] = "changed"
    assert "0.5 assumed" in PRESETS["fig2"].assumptions["q"]
    given = {"q": "stated"}
    preset = Preset("p", 0.5, (), given)
    given["q"] = "changed"
    assert dict(preset.assumptions) == {"q": "stated"}
    assert dict(Preset("p", 0.5, ()).assumptions) == {}
    assert Preset("p", 0.5, ()).assumptions is not Preset("r", 0.5, ()).assumptions


def test_deferred_series_copies_and_pickles():
    """A series whose weights are not built yet stays so through copy.copy
    and a pickle round trip, and then builds the same weights."""
    want = truncate(SPEC, AdaptiveTruncation()).rel_log_weights.tobytes()
    series = truncate(SPEC, AdaptiveTruncation())
    for clone in (copy.copy(series), pickle.loads(pickle.dumps(series))):
        assert "rel_log_weights" not in vars(clone)
        assert (clone.spec, clone.anchor, clone.tail_bound_rel, clone.converged, clone.n_max) == (
            series.spec, series.anchor, series.tail_bound_rel, series.converged, series.n_max)
        assert clone.rel_log_weights.tobytes() == want
    assert "rel_log_weights" not in vars(series)
