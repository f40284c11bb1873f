"""The catalog self-validates on load."""

import pytest

from lenard.errors import UnknownPreset
from lenard.presets import load_preset, preset_ids


@pytest.mark.parametrize("pid", preset_ids())
def test_preset_loads_and_validates(pid):
    pre = load_preset(pid)
    assert pre.chain.verify()


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        load_preset("no-such-thing")


@pytest.mark.parametrize("pid", preset_ids())
def test_fraction_against_sums(pid):
    # every preset has both sums, and they equal the fractions; a load does
    # not re-check this
    from lenard.operators import verify_fraction
    pre = load_preset(pid)
    for key, P in (("H_sum", pre.H), ("K_sum", pre.K)):
        assert verify_fraction(pre.extras[key], P.fraction(), -8), key


def test_numeric_binding_helper():
    pre = load_preset("kn", a_value=3)
    assert pre.extras["a"] == 3
