"""Feature flags for the paper's proposed extensions (§3.4, §6).

The base prototype refuses several app shapes; the paper sketches how
each refusal could be lifted.  This reproduction implements those
sketches behind explicit opt-in flags so the default behaviour stays
faithful to the published prototype while the extensions are real,
tested code:

* ``multi_process`` — checkpoint/restore the whole process tree
  ("CRIU already supports checkpointing an entire process tree").
  Lifts the Facebook refusal.
* ``gl_record_replay`` — record-prune-replay of GL calls for apps that
  preserve their EGL context across pause (the paper cites
  Kazemi/Garg/Cooperman [30] as the way around this).  Lifts the
  Subway Surfers refusal.
* ``content_provider_replay`` — treat ContentProvider connections as
  short-lived Binder services handled by record/replay ("it should be
  possible to leverage Flux's Selective Record/Adaptive Replay for
  support").
* ``sdcard_network_mount`` — instead of refusing on open common SD-card
  files, mount the home device's SD card over the network ("migrate the
  app and mount the home device's common SD card data as a network file
  system").
* ``gps_tether`` — when the guest lacks hardware the app was using,
  tether that device back to the home device over the network ("the
  user is given the option to allow communication with that device to
  continue to take place over the network").
* ``pipelined_transfer`` — §4 names transfer as the dominant stage and
  sketches transfer optimization as future work: the checkpoint image
  is split into content-addressed chunks, compression of chunk *i+1*
  overlaps the send of chunk *i*, and each device's persistent chunk
  store lets repeat migrations skip chunks the receiver has already
  seen.  See :mod:`repro.core.migration.chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FluxExtensions:
    multi_process: bool = False
    gl_record_replay: bool = False
    content_provider_replay: bool = False
    sdcard_network_mount: bool = False
    gps_tether: bool = False
    pipelined_transfer: bool = False

    @classmethod
    def none(cls) -> "FluxExtensions":
        """The published prototype's behaviour."""
        return cls()

    @classmethod
    def all(cls) -> "FluxExtensions":
        return cls(multi_process=True, gl_record_replay=True,
                   content_provider_replay=True, sdcard_network_mount=True,
                   gps_tether=True, pipelined_transfer=True)
