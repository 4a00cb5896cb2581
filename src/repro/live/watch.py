"""File watcher: republish an artifact path when the file is replaced.

The ``serve --watch`` deployment shape: an external build job writes a
new artifact and atomically renames it over the served path; the
watcher notices the identity change and publishes the new file into the
store — the running server flips epochs without a restart.

Polling (default 0.5 s) keeps this stdlib-only.  The change signature
is ``(st_ino, st_size, st_mtime_ns)``, so the *write-new-then-rename*
discipline is what publishers must follow: renaming changes the inode
atomically, while rewriting a served file in place would mutate pages
the old epoch still has mapped.  A half-written file that fails to load
(bad magic, short read) is retried on the next tick and counted, never
published.

What the watcher actually publishes is a **snapshot** (see
:meth:`~repro.live.store.VersionedArtifactStore.publish_snapshot`):
the watched *path* would alias every epoch — a replica shipper
re-opening it after a second replacement would ship content the store
never leased — while the snapshot pins the exact inode the signature
saw, so the epoch → content binding holds however fast the file is
replaced.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Callable, Dict, Optional, Tuple

from .store import VersionedArtifactStore

__all__ = ["ArtifactWatcher"]

_Sig = Tuple[int, int, int]


def _signature(path: str) -> Optional[_Sig]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class ArtifactWatcher:
    """Poll ``path``; publish into ``store`` whenever the file changes.

    Construct the watcher *before* publishing the initial version and
    call :meth:`publish_current` for epoch 1 — that closes the race
    where a replacement lands between the first load and the first
    stat (the baseline signature is captured before each load, so a
    concurrent replace only causes one redundant republish, never a
    missed one).  ``on_swap(epoch, path)`` (optional) fires after each
    successful publish — the CLI uses it to log swaps.
    """

    #: Consecutive publish failures after which the watcher surfaces a
    #: ``RuntimeWarning`` (once per losing streak): a file that stays
    #: unloadable this long is not a half-written replace racing the
    #: poll — it is a broken publisher, and silent retrying would hide
    #: it forever.
    WARN_AFTER = 5

    #: Retry backoff ceiling, as a multiple of ``interval_s``.
    MAX_BACKOFF_TICKS = 8

    def __init__(
        self,
        store: VersionedArtifactStore,
        path: str,
        *,
        interval_s: float = 0.5,
        on_swap: Optional[Callable[[int, str], None]] = None,
        warn_after: Optional[int] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.store = store
        self.path = str(path)
        self.interval_s = interval_s
        self._on_swap = on_swap
        self._published_sig: Optional[_Sig] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._swaps = 0
        self._failures = 0
        self._last_error = ""
        self.warn_after = self.WARN_AFTER if warn_after is None else warn_after
        self._consecutive_failures = 0
        self._warned = False

    # ------------------------------------------------------------------
    def publish_current(self) -> int:
        """Publish the file as it stands now (the initial epoch).

        The signature is captured *before* the load: a replacement
        landing mid-load costs one redundant republish on the next
        tick, never a missed one.  Raises whatever the load raises — a
        server must not start on an unloadable artifact.
        """
        sig = _signature(self.path)
        epoch = self.store.publish_snapshot(self.path)
        self._published_sig = sig
        return epoch

    # ------------------------------------------------------------------
    def start(self) -> "ArtifactWatcher":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._poll_loop, name="repro-live-watch", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ArtifactWatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def poll_once(self) -> Optional[int]:
        """One poll step: publish if the file changed; returns the epoch.

        Exposed for tests and for callers that schedule their own
        ticks; the background thread just calls this on its interval.

        A publish failure (typically a half-written file caught between
        the publisher's write and its atomic rename) is retried — but
        not silently forever: consecutive failures back the poll
        interval off exponentially (up to :data:`MAX_BACKOFF_TICKS` ×
        ``interval_s``) and, after :attr:`warn_after` in a row, surface
        one ``RuntimeWarning`` naming the path and the last error.  Any
        success (or an untouched file) resets the streak and the
        backoff.
        """
        sig = _signature(self.path)
        if sig is None or sig == self._published_sig:
            self._consecutive_failures = 0
            self._warned = False
            return None
        try:
            epoch = self.store.publish_snapshot(self.path)
        except Exception as exc:  # half-written file: retry with backoff
            self._failures += 1
            self._consecutive_failures += 1
            self._last_error = repr(exc)
            if self._consecutive_failures >= self.warn_after and not self._warned:
                self._warned = True
                warnings.warn(
                    f"ArtifactWatcher: {self.path!r} has failed to load "
                    f"{self._consecutive_failures} times in a row "
                    f"(last error: {exc!r}); still serving the previous "
                    "epoch — check the publisher writes a complete file "
                    "and renames it atomically",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        self._published_sig = sig
        self._swaps += 1
        self._consecutive_failures = 0
        self._warned = False
        if self._on_swap is not None:
            try:
                self._on_swap(epoch, self.path)
            except Exception:  # pragma: no cover - observer must not kill us
                pass
        return epoch

    def backoff_interval_s(self) -> float:
        """The wait before the next poll, grown by the failure streak."""
        ticks = min(
            self.MAX_BACKOFF_TICKS, 1 << min(self._consecutive_failures, 30)
        ) if self._consecutive_failures else 1
        return self.interval_s * ticks

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.backoff_interval_s()):
            try:
                self.poll_once()
            except Exception as exc:  # pragma: no cover - stat races
                self._failures += 1
                self._last_error = repr(exc)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "interval_s": self.interval_s,
            "swaps": self._swaps,
            "failures": self._failures,
            "consecutive_failures": self._consecutive_failures,
            "backoff_interval_s": self.backoff_interval_s(),
            "last_error": self._last_error,
        }

    def __repr__(self) -> str:
        return f"ArtifactWatcher(path={self.path!r}, swaps={self._swaps})"
