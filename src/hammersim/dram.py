"""Device geometry, row-cycle times, and refresh parameters.

Everything here is a plain value type plus a few derived quantities
(rows refreshed per REF command, idle-bank bandwidth).  Durations are
integer picoseconds throughout; see `units`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import ns, us, ms

# How long one RFM command blocks the bank, in ns; the engine, the energy
# model and the closed-form bounds all charge this one figure.
RFM_NS = 350.0

# The alert back-off (ABO) handshake the engine runs and the analysis
# assumes: after an alert at most ABO_ACT more ACTs within TABO_ACT_NS,
# then n_mit RFMs, then a hold of n_mit ACT opportunities before the next
# alert (Canpolat et al., DRAMSec 2024).
ABO_ACT = 3
TABO_ACT_NS = 180.0
# The RFMs one alert may ask for (n_mit): a scheme runs, and the analysis
# bounds, only these counts.
N_MITS = (1, 2, 4)

# Row-cycle time (tRC) in ns: the spacing the engine admits demand ACTs
# at and the time an attacker pays per activation.  PRAC lengthens the
# row cycle to update the row's counter (tRAS 16 + tRP 36 ns, against
# the default's tRAS 32 + tRP 16 ns); `schemes.SCHEME_RULES` gives each
# scheme one of the two.
DEFAULT_TRC_NS = 48.0
PRAC_TRC_NS = 52.0

# How long one standard REF blocks the bank, in ns; MOAT's longer REF is
# its own entry in the scheme table.
STANDARD_TRFC_NS = 295.0


@dataclass(frozen=True)
class DeviceGeometry:
    rows_per_bank: int = 65536
    banks: int = 32
    rows_per_dsa: int = 512
    counter_bits: int = 8
    blast_radius: int = 2

    def __post_init__(self) -> None:
        if self.rows_per_bank < 1 or self.rows_per_dsa < 1:
            raise ValueError("rows_per_bank and rows_per_dsa must be >= 1")
        if self.rows_per_bank % self.rows_per_dsa != 0:
            raise ValueError(
                "rows_per_bank must be a multiple of rows_per_dsa "
                f"({self.rows_per_bank} vs {self.rows_per_dsa})"
            )
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        # The compiled kernel stores each count in 32 bits.
        if not 1 <= self.counter_bits <= 32:
            raise ValueError("counter_bits must be in 1..32")

    @property
    def counter_cap(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class RefreshConfig:
    tREFW: int = ms(32)
    tREFI: int = us(3.9)
    tRFC: int = ns(STANDARD_TRFC_NS)

    def __post_init__(self) -> None:
        if self.tRFC <= 0:
            raise ValueError("tRFC must be > 0")
        if not self.tREFI < self.tREFW:
            raise ValueError("tREFI must be < tREFW")
        if not self.tRFC < self.tREFI:
            raise ValueError("tRFC must be < tREFI")

    @property
    def refs_per_window(self) -> int:
        """REF commands per refresh window.

        Refresh cadences come in power-of-two chunks, so this is the
        largest power of two whose REFs fit inside tREFW (8192 at the
        default 32 ms / 3.9 us).  Keeping the count a power of two also
        keeps every bank sweep aligned to the same window boundary.
        """
        n = self.tREFW // self.tREFI
        return 1 << (n.bit_length() - 1)

    @property
    def window_ps(self) -> int:
        """Length of one full refresh pass (refs_per_window * tREFI).

        With the default 32 ms / 3.9 us parameters this is 31.9488 ms; the
        per-window metrics in the engine use this boundary so each window
        holds exactly one refresh sweep of the bank.
        """
        return self.refs_per_window * self.tREFI


def rows_per_refresh(geometry: DeviceGeometry, refresh: RefreshConfig) -> int:
    """Rows covered by a single REF so the bank finishes in one window."""
    return math.ceil(geometry.rows_per_bank / refresh.refs_per_window)


def idle_bandwidth(refresh: RefreshConfig) -> float:
    """Fraction of time a bank can accept ACTs with refresh as the only
    interruption."""
    return 1.0 - refresh.tRFC / refresh.tREFI
