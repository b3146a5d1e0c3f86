"""Deterministic, seedable fault injection ("failpoints").

Production code marks crash-relevant spots with a named call::

    from repro.testkit.failpoints import failpoint
    ...
    failpoint("persistence.save.pre_rename", path=tmp_path)

When nothing is armed the call is a single attribute check — cheap
enough to leave in non-hot paths permanently (the instrumented sites are
checkpoint saves, buffer drains, and cleaning cycles, never the
per-write fast path).  Tests arm a failpoint to turn the marked moment
into an injected crash, making crash-at-any-point coverage a one-liner::

    with FAILPOINTS.armed("persistence.save.pre_rename"):
        with pytest.raises(InjectedFault):
            save_store(store, path)

Arming supports:

* ``times`` — fire on the first N eligible hits (default: every hit);
* ``skip`` — let the first N hits pass before becoming eligible, so the
  "crash on the third append" tests need no counting in the test body;
* ``prob``/``seed`` — fire on each eligible hit with probability ``prob``
  drawn from a **private** ``random.Random(seed)``, so randomized fault
  schedules are reproducible and independent of global RNG state;
* ``hook`` — run an arbitrary callable (observe, mutate, or raise
  something custom) instead of raising :class:`InjectedFault`.

The registry also counts hits while any arm or tracing is active, which
lets tests assert that a code path actually passed a given point.  It
has no subscribers: it is process-wide, so a hit belongs to whichever
store reached the site, and only an arm or a tracing scope makes the
sites live.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "FAILPOINTS",
    "FailpointRegistry",
    "InjectedFault",
    "failpoint",
]


class InjectedFault(Exception):
    """Raised at an armed failpoint (simulates a crash at that spot)."""

    def __init__(self, name: str) -> None:
        super().__init__("injected fault at failpoint %r" % name)
        self.name = name


class _Arm:
    """One armed behavior attached to a failpoint name."""

    __slots__ = ("name", "times", "skip", "prob", "exc", "hook", "fired", "_rng")

    def __init__(
        self,
        name: str,
        times: Optional[int],
        skip: int,
        prob: Optional[float],
        seed: int,
        exc: Optional[BaseException],
        hook: Optional[Callable[[Dict[str, Any]], None]],
    ) -> None:
        if times is not None and times < 1:
            raise ValueError("times must be >= 1 or None")
        if skip < 0:
            raise ValueError("skip must be >= 0")
        if prob is not None and not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        self.name = name
        self.times = times
        self.skip = skip
        self.prob = prob
        self.exc = exc
        self.hook = hook
        self.fired = 0
        self._rng = random.Random(seed) if prob is not None else None

    def fire(self, ctx: Dict[str, Any]) -> None:
        if self.times is not None and self.fired >= self.times:
            return
        if self.skip > 0:
            self.skip -= 1
            return
        if self._rng is not None and self._rng.random() >= self.prob:
            return
        self.fired += 1
        if self.hook is not None:
            self.hook(ctx)
            return
        if self.exc is not None:
            raise self.exc
        raise InjectedFault(self.name)


class FailpointRegistry:
    """Process-local registry of armed failpoints and hit counters."""

    def __init__(self) -> None:
        self._arms: Dict[str, List[_Arm]] = {}
        self._hits: Dict[str, int] = {}
        self._tracing = False
        #: Fast-path flag read by :func:`failpoint`; True only while at
        #: least one arm or tracing scope exists.
        self.active = False

    # -- arming --------------------------------------------------------

    def arm(
        self,
        name: str,
        *,
        times: Optional[int] = None,
        skip: int = 0,
        prob: Optional[float] = None,
        seed: int = 0,
        exc: Optional[BaseException] = None,
        hook: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> _Arm:
        """Attach crash/hook behavior to ``name``; returns the arm (its
        ``fired`` counter tells how often it triggered)."""
        arm = _Arm(name, times, skip, prob, seed, exc, hook)
        self._arms.setdefault(name, []).append(arm)
        self.active = True
        return arm

    def clear(self) -> None:
        """Remove all arms and hit counters."""
        self._arms.clear()
        self._hits.clear()
        self._tracing = False
        self.active = False

    @contextmanager
    def armed(self, name: str, **kwargs) -> Iterator[_Arm]:
        """Scope-limited :meth:`arm`; disarms that one arm on exit."""
        arm = self.arm(name, **kwargs)
        try:
            yield arm
        finally:
            arms = self._arms.get(name)
            if arms is not None:
                try:
                    arms.remove(arm)
                except ValueError:
                    pass
                if not arms:
                    del self._arms[name]
            self._refresh_active()

    @contextmanager
    def tracing(self) -> Iterator["FailpointRegistry"]:
        """Count hits at every failpoint without injecting anything."""
        self._tracing = True
        self.active = True
        try:
            yield self
        finally:
            self._tracing = False
            self._refresh_active()

    def _refresh_active(self) -> None:
        self.active = bool(self._arms) or self._tracing

    # -- the call site -------------------------------------------------

    def hit(self, name: str, ctx: Dict[str, Any]) -> None:
        """Record a hit and fire any matching arms (may raise)."""
        self._hits[name] = self._hits.get(name, 0) + 1
        for arm in self._arms.get(name, ()):
            arm.fire(ctx)

    # -- introspection -------------------------------------------------

    def count(self, name: str) -> int:
        """Hits recorded at ``name`` while the registry was active."""
        return self._hits.get(name, 0)


#: The process-wide registry every instrumented call site consults.
FAILPOINTS = FailpointRegistry()


def failpoint(name: str, **ctx: Any) -> None:
    """Mark a crash-relevant spot in production code.

    No-op (one attribute read) unless something is armed or tracing.
    """
    if FAILPOINTS.active:
        FAILPOINTS.hit(name, ctx)
