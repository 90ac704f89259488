"""AudioService: stream volumes, ringer mode, audio focus.

Stream volume is *device* state with a device-specific range (the paper's
volume-rescale example for ``@replayproxy``): the guest's maximum per
stream may differ from the home's, so replay goes through the
``audioSetStreamVolume`` proxy which rescales the index.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.android.app.intent import PendingIntent
from repro.android.services.base import ServiceContext, ServiceError, SystemService


# Stream types (subset of android.media.AudioManager).
STREAM_VOICE = 0
STREAM_SYSTEM = 1
STREAM_RING = 2
STREAM_MUSIC = 3
STREAM_ALARM = 4

RINGER_NORMAL = 2
RINGER_VIBRATE = 1
RINGER_SILENT = 0

AUDIOFOCUS_GRANTED = 1
AUDIOFOCUS_LOSS = -1


class AudioService(SystemService):
    SERVICE_KEY = "audio"
    DESCRIPTOR = "IAudioService"

    DEFAULT_MAX = {STREAM_VOICE: 5, STREAM_SYSTEM: 7, STREAM_RING: 7,
                   STREAM_MUSIC: 15, STREAM_ALARM: 7}

    def __init__(self, ctx: ServiceContext) -> None:
        super().__init__(ctx)
        hw_max = getattr(ctx.hardware, "stream_max_volumes", None)
        self._max = dict(hw_max) if hw_max else dict(self.DEFAULT_MAX)
        self._volumes = {s: m // 2 for s, m in self._max.items()}
        self._muted: Dict[int, bool] = {}
        self._ringer_mode = RINGER_NORMAL
        self._mode = 0
        self._speakerphone = False
        self._mic_muted = False
        self._bt_sco = False
        self._focus_stack: List[str] = []      # clientIds, top = holder
        self._media_button_receivers: List[PendingIntent] = []

    # -- volume ------------------------------------------------------------------

    def adjustStreamVolume(self, caller, stream_type: int, direction: int,
                           flags: int) -> None:
        current = self.getStreamVolume(caller, stream_type)
        self.setStreamVolume(caller, stream_type, current + direction, flags)

    def setStreamVolume(self, caller, stream_type: int, index: int,
                        flags: int) -> None:
        maximum = self._max_of(stream_type)
        self._volumes[stream_type] = max(0, min(index, maximum))

    def setStreamMute(self, caller, stream_type: int, mute: bool) -> None:
        self._max_of(stream_type)
        self._muted[stream_type] = bool(mute)

    def getStreamVolume(self, caller, stream_type: int) -> int:
        self._max_of(stream_type)
        return self._volumes[stream_type]

    def getStreamMaxVolume(self, caller, stream_type: int) -> int:
        return self._max_of(stream_type)

    # -- modes ---------------------------------------------------------------------

    def setRingerMode(self, caller, mode: int) -> None:
        if mode not in (RINGER_NORMAL, RINGER_VIBRATE, RINGER_SILENT):
            raise ServiceError(f"bad ringer mode {mode!r}")
        self._ringer_mode = mode

    def getRingerMode(self, caller) -> int:
        return self._ringer_mode

    def setMode(self, caller, mode: int) -> None:
        self._mode = mode

    def getMode(self, caller) -> int:
        return self._mode

    def setSpeakerphoneOn(self, caller, on: bool) -> None:
        self._speakerphone = bool(on)

    def isSpeakerphoneOn(self, caller) -> bool:
        return self._speakerphone

    def setMicrophoneMute(self, caller, on: bool) -> None:
        self._mic_muted = bool(on)

    def isMicrophoneMute(self, caller) -> bool:
        return self._mic_muted

    def setBluetoothScoOn(self, caller, on: bool) -> None:
        self._bt_sco = bool(on)

    def isBluetoothScoOn(self, caller) -> bool:
        return self._bt_sco

    # -- audio focus ------------------------------------------------------------------

    def requestAudioFocus(self, caller, client_id: str, stream_type: int,
                          duration_hint: int) -> int:
        if client_id in self._focus_stack:
            self._focus_stack.remove(client_id)
        self._focus_stack.append(client_id)
        return AUDIOFOCUS_GRANTED

    def abandonAudioFocus(self, caller, client_id: str) -> int:
        if client_id in self._focus_stack:
            self._focus_stack.remove(client_id)
        return AUDIOFOCUS_GRANTED

    def focus_holder(self) -> Optional[str]:
        return self._focus_stack[-1] if self._focus_stack else None

    # -- media buttons -------------------------------------------------------------------

    def registerMediaButtonReceiver(self, caller,
                                    receiver: PendingIntent) -> None:
        if receiver not in self._media_button_receivers:
            self._media_button_receivers.append(receiver)

    def unregisterMediaButtonReceiver(self, caller,
                                      receiver: PendingIntent) -> None:
        if receiver in self._media_button_receivers:
            self._media_button_receivers.remove(receiver)

    # -- helpers -----------------------------------------------------------------------

    def _max_of(self, stream_type: int) -> int:
        try:
            return self._max[stream_type]
        except KeyError:
            raise ServiceError(f"unknown stream type {stream_type!r}") from None

    def snapshot(self, package: str) -> Dict[str, Any]:
        return {
            "volumes": dict(self._volumes),
            "ringer": self._ringer_mode,
            "focus_holder": self.focus_holder(),
            "media_buttons": len(self._media_button_receivers),
        }
