"""The paper's algebraic cleaning-cost model (Section 2.1).

With ``E`` the fraction of a segment that is empty when cleaned, writing
one segment of new data costs (Equation 1)::

    Cost_seg = 1/E reads + (1/E)(1 - E) writes + 1 write = 2/E

and the write amplification — cleaning writes per user write — is
(Equation 2)::

    Wamp = (1 - E) / E

These two are inverses of each other through ``E``, which lets simulation
results (measured Wamp) be checked directly against analysis (predicted
E): ``E = 1 / (1 + Wamp)``.
"""

from __future__ import annotations


def cost_per_segment(emptiness: float) -> float:
    """Equation 1: total I/O (in segment units) to write one segment of
    new data, including the cleaning it necessitates."""
    _check_emptiness(emptiness)
    return 2.0 / emptiness


def cleaning_reads(emptiness: float) -> float:
    """Segments read (cleaned) per segment of new data: ``1/E``."""
    _check_emptiness(emptiness)
    return 1.0 / emptiness


def cleaning_writes(emptiness: float) -> float:
    """Segments of relocated pages written per segment of new data:
    ``(1/E)(1 - E)`` — the write-amplification term of Equation 1."""
    _check_emptiness(emptiness)
    return (1.0 - emptiness) / emptiness


def write_amplification(emptiness: float) -> float:
    """Equation 2: ``Wamp = (1 - E) / E``."""
    _check_emptiness(emptiness)
    return (1.0 - emptiness) / emptiness


def emptiness_from_wamp(wamp: float) -> float:
    """Invert Equation 2: the cleaned-segment emptiness a measured write
    amplification implies."""
    if wamp < 0.0:
        raise ValueError("write amplification cannot be negative")
    return 1.0 / (1.0 + wamp)


def emptiness_ratio(emptiness: float, fill_factor: float) -> float:
    """Table 1's ``R = E / (1 - F)``: how much better a cleaner does than
    the device-wide average empty space."""
    if not 0.0 < fill_factor < 1.0:
        raise ValueError("fill_factor must be in (0, 1)")
    _check_emptiness(emptiness)
    return emptiness / (1.0 - fill_factor)


def _check_emptiness(emptiness: float) -> None:
    if not 0.0 < emptiness <= 1.0:
        raise ValueError("emptiness must be in (0, 1], got %r" % (emptiness,))
