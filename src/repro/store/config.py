"""Configuration for the log-structured store simulator.

The paper's simulator (Section 6.1.1) uses 4 KB pages, 2 MB segments
(512 pages), a 100 GB device, a cleaning trigger of 32 free segments and a
cleaning batch of 64 segments.  The paper notes (footnote 2) that the
absolute device size does not affect write amplification, so the default
configuration here is scaled down to keep pure-Python simulations fast;
every benchmark states the configuration it uses.

All space quantities are expressed in abstract *units*.  In the fixed-size
experiments one unit is one 4 KB page and a segment holds
``segment_units`` pages.  Variable-size pages (paper Section 4.4) are
supported by giving pages sizes larger than one unit.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.store.errors import ConfigError

#: Paper values (Section 6.1.1), for reference and for full-scale runs.
PAPER_PAGE_BYTES = 4 * 1024
PAPER_SEGMENT_BYTES = 2 * 1024 * 1024
PAPER_SEGMENT_PAGES = PAPER_SEGMENT_BYTES // PAPER_PAGE_BYTES  # 512
PAPER_DEVICE_BYTES = 100 * 1024 ** 3
PAPER_DEVICE_SEGMENTS = PAPER_DEVICE_BYTES // PAPER_SEGMENT_BYTES  # 51200
PAPER_CLEAN_TRIGGER = 32
PAPER_CLEAN_BATCH = 64

#: Figure 4's knee: a sorting buffer of this many segments is already
#: near-optimal (Wamp 1.396 with none, 0.898 at 4, 0.713 at 16 on the
#: scaled device), so it is the buffer the comparative figures give the
#: separating MDC variants and the one a service shard gets when its
#: config names none (:func:`repro.service.pool.with_sort_buffer`).
DEFAULT_SORT_BUFFER = 16


@dataclasses.dataclass(frozen=True)
class StoreConfig:
    """Parameters of a simulated log-structured store.

    Attributes:
        n_segments: Number of physical segments on the device.
        segment_units: Capacity of one segment, in units (pages for the
            fixed-size experiments).
        fill_factor: Fraction ``F`` of physical space occupied by current
            user data.  The user-visible page count is derived from it in
            fixed-size mode; for trace replay the caller sizes the device
            instead.
        clean_trigger: Cleaning starts when the number of free segments
            falls below this threshold.
        clean_batch: Number of in-use segments cleaned per cleaning cycle
            (the paper uses 64; the multi-log policies override this to 1
            to match the evaluation in the paper).
        sort_buffer_segments: Size of the user-write sorting buffer, in
            segments (Figure 4's x-axis).  ``0`` disables buffering: user
            writes go straight to an open segment.  The buffer is RAM, so
            it does not consume device segments.
        user_pages_override: Explicit user page count.  By default the
            page count is ``fill_factor * device``; precision benchmarks
            override it to compensate for the standing free-segment
            reserve (negligible at the paper's 51,200-segment scale but a
            visible bite out of the slack on small simulated devices).
    """

    n_segments: int = 512
    segment_units: int = 64
    fill_factor: float = 0.8
    clean_trigger: int = 4
    clean_batch: int = 8
    sort_buffer_segments: int = 0
    user_pages_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_segments < 4:
            raise ConfigError("n_segments must be at least 4, got %d" % self.n_segments)
        if self.segment_units < 1:
            raise ConfigError("segment_units must be positive, got %d" % self.segment_units)
        if not 0.0 < self.fill_factor < 1.0:
            raise ConfigError(
                "fill_factor must be in (0, 1), got %r" % (self.fill_factor,)
            )
        if self.clean_trigger < 1:
            raise ConfigError("clean_trigger must be >= 1, got %d" % self.clean_trigger)
        if self.clean_batch < 1:
            raise ConfigError("clean_batch must be >= 1, got %d" % self.clean_batch)
        if self.sort_buffer_segments < 0:
            raise ConfigError(
                "sort_buffer_segments must be >= 0, got %d" % self.sort_buffer_segments
            )
        if self.user_pages_override is not None:
            usable = (self.n_segments - self.clean_trigger - 2) * self.segment_units
            if not 0 < self.user_pages_override <= usable:
                raise ConfigError(
                    "user_pages_override=%d outside (0, %d]"
                    % (self.user_pages_override, usable)
                )
        slack_segments = self.n_segments * (1.0 - self.fill_factor)
        if slack_segments <= self.clean_trigger + 2:
            raise ConfigError(
                "device slack (%.1f segments at fill_factor=%.3f) must exceed "
                "clean_trigger=%d plus open-segment overhead; enlarge the device "
                "or lower the fill factor"
                % (slack_segments, self.fill_factor, self.clean_trigger)
            )

    @property
    def device_units(self) -> int:
        """Total device capacity in units."""
        return self.n_segments * self.segment_units

    @property
    def user_pages(self) -> int:
        """Number of user-visible fixed-size pages, ``P = F * device``
        (or the explicit override)."""
        if self.user_pages_override is not None:
            return self.user_pages_override
        return int(self.fill_factor * self.device_units)

    def with_reserve_compensation(self) -> "StoreConfig":
        """Enlarge the device by the standing reserve overhead while
        keeping the user page count at ``F`` times the *original* device.

        The standing overhead is the cleaning trigger (the free pool
        hovers there) plus two open segments.  At the paper's scale this
        is ~0.07 % of the device; on a few-hundred-segment simulation it
        would otherwise consume a visible share of the slack and bias
        emptiness measurements low.
        """
        overhead = self.clean_trigger + 2
        return dataclasses.replace(
            self,
            n_segments=self.n_segments + overhead,
            user_pages_override=int(self.fill_factor * self.device_units),
        )

    def scaled(self, **overrides) -> "StoreConfig":
        """Return a copy with some fields replaced."""
        return dataclasses.replace(self, **overrides)


def paper_config(fill_factor: float = 0.8, **overrides) -> StoreConfig:
    """The full-scale configuration from the paper (100 GB device).

    Provided for completeness; pure-Python simulation at this scale takes
    hours per data point, so the benchmarks use scaled-down configs.
    """
    base = StoreConfig(
        n_segments=PAPER_DEVICE_SEGMENTS,
        segment_units=PAPER_SEGMENT_PAGES,
        fill_factor=fill_factor,
        clean_trigger=PAPER_CLEAN_TRIGGER,
        clean_batch=PAPER_CLEAN_BATCH,
    )
    return base.scaled(**overrides) if overrides else base
