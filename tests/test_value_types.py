"""Value types: every one is an immutable named tuple, and those that validate
do so whenever they are built; all compare by value but JointAmplitudes,
whose matrix has no truth value."""
import copy
import pickle

import pytest

from fockseries import (
    AdaptiveTruncation,
    BeamSplitterSetting,
    FixedTruncation,
    InvalidParameter,
    JointAmplitudes,
    StateSpec,
    SweepRequest,
    linear_entropy,
    penson_solomon_state,
    photon_statistics,
    split,
    truncate,
)
from fockseries.oracle import PrecisionConfig
from fockseries.sweep import PRESETS

SPEC = penson_solomon_state(0.5, 3, 0.5)


def records():
    """One instance of every type that compares by value, built by its public
    constructor: an adaptive and a fixed-cutoff series among them."""
    series = truncate(SPEC, AdaptiveTruncation())
    return [SPEC, AdaptiveTruncation(), FixedTruncation(10), series,
            truncate(SPEC, FixedTruncation(10)), photon_statistics(series),
            BeamSplitterSetting(), linear_entropy(series),
            SweepRequest("mandel_q", 0.5, 3, "out.csv"), PRESETS["fig2"].curves[0],
            PRESETS["fig2"], PrecisionConfig()]


def amplitudes():
    return split(truncate(SPEC, FixedTruncation(10)))


FIELD_CASES = [*records(), amplitudes()]


@pytest.mark.parametrize("obj", FIELD_CASES, ids=lambda obj: type(obj).__name__)
def test_fields_cannot_be_set_or_deleted(obj):
    for name in (*obj._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_compare_by_value(record):
    """A record rebuilt from its fields, copied or unpickled equals the
    original and hashes alike."""
    for twin in (type(record)(*record), copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)
        assert hash(twin) == hash(record)


def test_state_spec_is_a_dict_key():
    values = {SPEC: "q=0.5"}
    assert values[StateSpec(alpha_abs=0.5, k=3, q=0.5)] == "q=0.5"
    assert StateSpec(0.5, 3) not in values
    alpha, k, q = SPEC
    assert (alpha, k, q) == (0.5, 3, 0.5)


def test_joint_amplitudes_compare_by_identity():
    amps = amplitudes()
    for twin in (JointAmplitudes(*amps), copy.copy(amps)):
        assert amps == amps and amps != twin and not amps == twin
    assert hash(amps) == object.__hash__(amps) and {amps: 1}[amps] == 1


@pytest.mark.parametrize("policy", [AdaptiveTruncation(), FixedTruncation(10)],
                         ids=["adaptive", "fixed"])
def test_series_compare_by_value(policy):
    assert truncate(SPEC, policy) == truncate(SPEC, policy)
    assert hash(truncate(SPEC, policy)) == hash(truncate(SPEC, policy))
    assert truncate(SPEC, policy) != truncate(SPEC._replace(alpha_abs=0.6), policy)


@pytest.mark.parametrize("policy", [AdaptiveTruncation(), FixedTruncation(10)],
                         ids=["adaptive", "fixed"])
def test_shorter_series_reads_a_prefix(policy):
    """A term's log-weight depends only on the terms between it and the
    anchor, so a series cut at any m >= anchor reads the first m + 1
    entries of a longer one, bit for bit."""
    series = truncate(SPEC, policy)
    longer = series._replace(n_max=series.n_max + 20).rel_log_weights
    for m in range(series.anchor, series.n_max + 21):
        assert series._replace(n_max=m).rel_log_weights.tobytes() == longer[:m + 1].tobytes()


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
    """Editing a preset's assumptions once raised no error and rewrote every
    later manifest of that preset in the process; they are now a tuple of
    (key, text) pairs, which refuses edits."""
    assumptions = PRESETS["fig2"].assumptions
    with pytest.raises(TypeError):
        assumptions[0] = ("q", "changed")
    assert "0.5 assumed" in dict(assumptions)["q"]
    assert PRESETS["fig1-left"].assumptions == ()

