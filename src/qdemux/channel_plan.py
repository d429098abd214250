"""ITU 100-GHz grid arithmetic and pump-symmetric signal/idler pairing.

C-band DWDM channels follow the ITU-T G.694.1 fixed grid: channel ``n``
sits at ``190.0 + n/10`` THz.  A microring pumped on one grid channel
emits photon pairs on channels at equal spectral intervals below and
above the pump, so a channel plan is fully described by the pump index
and a list of integer offsets.

Wavelengths are vacuum values; the grid frequency is the single source
of truth and wavelengths are always derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

C_VACUUM_M_PER_S = 299_792_458.0
#: c expressed in nm*THz, so wavelength_nm = C_NM_THZ / frequency_THz.
C_NM_THZ = C_VACUUM_M_PER_S * 1e-3

GRID_ANCHOR_THZ = 190.0
GRID_STEP_THZ = 0.1

#: Supported C-band channel index range.
CHANNEL_INDEX_MIN = 15
CHANNEL_INDEX_MAX = 62


def channel_frequency(index: int) -> float:
    """Center frequency in THz of ITU C-band channel ``index``."""
    _check_index(index)
    return GRID_ANCHOR_THZ + index * GRID_STEP_THZ


def channel_wavelength(index: int) -> float:
    """Vacuum center wavelength in nm of ITU C-band channel ``index``.

    Full double precision; round only at presentation (the conventional
    grid tables print two decimals).
    """
    return C_NM_THZ / channel_frequency(index)


def frequency_to_wavelength(frequency_thz: float) -> float:
    """Convert THz to vacuum nm."""
    if frequency_thz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_thz} THz")
    return C_NM_THZ / frequency_thz


def wavelength_to_frequency(wavelength_nm: float) -> float:
    """Convert vacuum nm to THz."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm} nm")
    return C_NM_THZ / wavelength_nm


def paired_channel(signal_index: int, pump_index: int) -> int:
    """Idler channel index correlated with ``signal_index`` for a given pump.

    Energy conservation in four-wave mixing places signal and idler at
    equal intervals from the pump: ``idler = 2*pump - signal``.
    """
    _check_index(signal_index)
    _check_index(pump_index)
    idler = 2 * pump_index - signal_index
    _check_index(idler)
    return idler


@dataclass(frozen=True)
class ItuChannel:
    """One C-band grid channel, e.g. C34."""

    index: int

    def __post_init__(self) -> None:
        _check_index(self.index)

    @property
    def center_frequency_thz(self) -> float:
        return channel_frequency(self.index)

    @property
    def center_wavelength_nm(self) -> float:
        return channel_wavelength(self.index)

    @property
    def name(self) -> str:
        return f"C{self.index}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ChannelPair:
    """A signal/idler channel pair symmetric about the pump channel.

    The signal sits on the long-wavelength (low-frequency) side of the
    pump, matching the conventional labelling of ring-resonator pair
    sources.
    """

    signal: ItuChannel
    idler: ItuChannel
    pump: ItuChannel
    label: str

    def __post_init__(self) -> None:
        if self.signal.index + self.idler.index != 2 * self.pump.index:
            raise ValueError(
                f"pair {self.label}: signal C{self.signal.index} and idler "
                f"C{self.idler.index} are not symmetric about pump C{self.pump.index}"
            )
        if not self.signal.index < self.pump.index < self.idler.index:
            raise ValueError(
                f"pair {self.label}: expected signal < pump < idler channel index, "
                f"got C{self.signal.index}, C{self.pump.index}, C{self.idler.index}"
            )

    @property
    def signal_label(self) -> str:
        return self.label.split("-")[0]

    @property
    def idler_label(self) -> str:
        return self.label.split("-")[1]


def build_plan(pump_index: int, pair_offsets: list[int]) -> list[ChannelPair]:
    """Materialize a channel plan from a pump index and pair offsets.

    Pairs are labelled S1-I1, S2-I2, ... in order of increasing offset.
    Offsets must be positive and distinct.
    """
    pump = ItuChannel(pump_index)
    seen: set[int] = set()
    for off in pair_offsets:
        if off <= 0:
            raise ValueError(f"pair offsets must be positive, got {off}")
        if off in seen:
            raise ValueError(f"duplicate pair offset {off}")
        seen.add(off)
    plan = []
    for rank, off in enumerate(sorted(pair_offsets), start=1):
        signal = ItuChannel(pump_index - off)
        idler = ItuChannel(paired_channel(signal.index, pump_index))
        plan.append(ChannelPair(signal, idler, pump, label=f"S{rank}-I{rank}"))
    return plan


def _check_index(index: int) -> None:
    if not isinstance(index, (int,)) or isinstance(index, bool):
        raise ValueError(f"channel index must be an integer, got {index!r}")
    if not CHANNEL_INDEX_MIN <= index <= CHANNEL_INDEX_MAX:
        raise ValueError(
            f"channel index {index} outside supported C-band range "
            f"[{CHANNEL_INDEX_MIN}, {CHANNEL_INDEX_MAX}]"
        )
