import pytest
from hypothesis import given, strategies as st

from qdemux.channel_plan import (
    CHANNEL_INDEX_MAX,
    CHANNEL_INDEX_MIN,
    ItuChannel,
    build_plan,
    channel_frequency,
    channel_wavelength,
    paired_channel,
)

# published grid-table values (two-decimal print precision)
GRID_TABLE_NM = {
    34: 1550.12,
    20: 1561.42,
    22: 1559.79,
    24: 1558.17,
    44: 1542.14,
    46: 1540.56,
    48: 1538.98,
}


def test_channel_wavelengths_match_grid_table():
    for index, expected in GRID_TABLE_NM.items():
        assert channel_wavelength(index) == pytest.approx(expected, abs=0.005)


def test_grid_frequency_rule_is_exact():
    assert channel_frequency(34) == 193.4
    assert channel_frequency(20) == 192.0
    assert channel_frequency(62) == 196.2


def test_wavelength_frequency_product_is_c():
    c_nm_thz = 299792.458
    for index in range(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1):
        ch = ItuChannel(index)
        product = ch.center_wavelength_nm * ch.center_frequency_thz
        assert abs(product / c_nm_thz - 1.0) < 1e-6


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match=r"\[15, 62\]"):
        channel_wavelength(14)
    with pytest.raises(ValueError, match=r"\[15, 62\]"):
        ItuChannel(63)


def test_paired_channel_examples():
    assert paired_channel(22, 34) == 46
    assert paired_channel(34, 34) == 34  # degenerate pump channel
    assert paired_channel(24, 34) == 44


def test_paired_channel_out_of_range_result():
    with pytest.raises(ValueError):
        paired_channel(20, 45)  # 2*45-20 = 70, outside the band


@given(st.integers(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX),
       st.integers(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX))
def test_pairing_involution(signal, pump):
    idler = 2 * pump - signal
    if not CHANNEL_INDEX_MIN <= idler <= CHANNEL_INDEX_MAX:
        return
    assert paired_channel(paired_channel(signal, pump), pump) == signal


def test_build_plan_matches_channel_table():
    plan = build_plan(34, [10, 12, 14])
    assert [p.label for p in plan] == ["S1-I1", "S2-I2", "S3-I3"]
    assert [(p.signal.index, p.idler.index) for p in plan] == [(24, 44), (22, 46), (20, 48)]
    assert all(p.pump.index == 34 for p in plan)


def test_build_plan_empty():
    assert build_plan(34, []) == []


def test_build_plan_single_offset():
    # oracle: idler = 2*34 - 29 = 39
    (pair,) = build_plan(34, [5])
    assert pair.signal.index == 29
    assert pair.idler.index == 2 * 34 - 29
    assert pair.label == "S1-I1"


def test_build_plan_rejects_duplicates_and_nonpositive():
    with pytest.raises(ValueError, match="duplicate"):
        build_plan(34, [10, 10])
    with pytest.raises(ValueError, match="positive"):
        build_plan(34, [0])


def test_two_decimal_print_precision_reproduces_grid_table():
    for index, expected in GRID_TABLE_NM.items():
        assert f"{channel_wavelength(index):.2f}" == f"{expected:.2f}"


def test_pair_ordering_invariant():
    plan = build_plan(34, [10, 12, 14])
    for p in plan:
        assert p.signal.index < p.pump.index < p.idler.index
        assert p.signal.index + p.idler.index == 2 * p.pump.index
        # signal on the long-wavelength side of the pump
        assert p.signal.center_wavelength_nm > p.pump.center_wavelength_nm
