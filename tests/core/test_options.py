"""Option values the runtime does not define are rejected up front,
and option names it does not define cannot be set at all."""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process

# Options that count something and must be an int >= 1.
COUNTS = [
    "trace_threshold",
    "max_trace_bbs",
    "max_bb_instrs",
    "client_fault_limit",
    "shield_fault_limit",
    "shield_watchdog_limit",
]


@pytest.mark.parametrize("name, value", [("cache_evict_policy", "lru")])
def test_unknown_option_value_rejected(loop_image, name, value):
    options = RuntimeOptions(code_cache_limit=700, **{name: value})
    with pytest.raises(ValueError, match="unknown %s" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", ["chain_threshold"])
@pytest.mark.parametrize("value", [None, 0, -1, 2.0, "20", True])
def test_chain_counts_must_be_positive_ints(loop_image, name, value):
    """The run loop reads ``chain_threshold`` (the tier-2 promotion
    threshold), so a bad value must fail at construction rather than
    mid-run or by promoting on every pass."""
    options = RuntimeOptions(**{name: value})
    with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", ["chain_threshold"])
def test_chain_counts_accept_one(loop_image, loop_native, name):
    options = RuntimeOptions(**{name: 1})
    result = DynamoRIO(Process(loop_image), options=options).run()
    assert result.output == loop_native.output


@pytest.mark.parametrize(
    "name", COUNTS + ["code_cache_limit", "client_hook_budget"])
@pytest.mark.parametrize("value", [0, -1, -5, 2.0, "20", True])
def test_counts_must_be_positive_ints(loop_image, name, value):
    """An out-of-range count would otherwise run silently: a zero or
    negative trace threshold builds traces at once, a zero block or
    trace length still builds, a negative cache limit acts as zero, a
    zero watchdog limit detaches a clean run to native."""
    options = RuntimeOptions(**{name: value})
    with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("name", COUNTS)
def test_counts_reject_none(loop_image, name):
    options = RuntimeOptions(**{name: None})
    with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize(
    "name", COUNTS + ["code_cache_limit", "client_hook_budget"])
def test_counts_accept_one(loop_image, loop_native, name):
    options = RuntimeOptions(**{name: 1})
    result = DynamoRIO(Process(loop_image), options=options).run()
    assert result.output == loop_native.output


def test_shield_watchdog_limit_one_keeps_a_clean_run_attached(loop_image):
    options = RuntimeOptions(shield=True, shield_watchdog_limit=1)
    runtime = DynamoRIO(Process(loop_image), options=options)
    runtime.run()
    assert runtime.stats.watchdog_trips == 0
    assert not runtime.detached


@pytest.mark.parametrize("value", [1, 1.0, 0.5, 0, -1.0, "2", True, None])
def test_cache_grow_factor_must_exceed_one(loop_image, value):
    """A factor of at most 1 "grows" an adaptive cache by a byte or
    shrinks it, so the cache thrashes instead of sizing itself."""
    options = RuntimeOptions(cache_grow_factor=value)
    with pytest.raises(ValueError, match="cache_grow_factor must be a number > 1"):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("value", [1, 1.0, 2.0, -0.1, "0.5", True, None])
def test_cache_regen_threshold_must_be_a_fraction(loop_image, value):
    """A threshold of 1 or more never lets the adaptive cache grow."""
    options = RuntimeOptions(cache_regen_threshold=value)
    with pytest.raises(
        ValueError, match=r"cache_regen_threshold must be a number in \[0, 1\)"
    ):
        DynamoRIO(Process(loop_image), options=options)


@pytest.mark.parametrize("grow, regen", [(1.5, 0), (3, 0.0), (2.0, 0.99)])
def test_adaptive_cache_settings_accept_their_range(
    loop_image, loop_native, grow, regen
):
    options = RuntimeOptions(
        code_cache_limit=300,
        cache_evict_policy="fifo",
        cache_adaptive=True,
        cache_grow_factor=grow,
        cache_regen_threshold=regen,
    )
    result = DynamoRIO(Process(loop_image), options=options).run()
    assert result.output == loop_native.output


@pytest.mark.parametrize("name", ["engine", "chain_treshold"])
def test_unknown_option_name_cannot_be_set(name):
    """A retired or misspelt knob would otherwise be stored and ignored,
    silently running the defaults."""
    options = RuntimeOptions()
    with pytest.raises(AttributeError):
        setattr(options, name, 1)
    with pytest.raises(TypeError):
        RuntimeOptions(**{name: 1})


def test_copy_keeps_every_field():
    options = RuntimeOptions.bb_cache_only()
    options.chain_threshold = 7
    options.client_hook_budget = 50
    copy = options.copy()
    assert copy is not options
    for name in RuntimeOptions.__slots__:
        assert getattr(copy, name) == getattr(options, name), name
    copy.chain_threshold = 8
    assert options.chain_threshold == 7
