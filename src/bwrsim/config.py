"""Run configuration: typed settings with scenario presets and a small
section/key=value file format.

Each SimConfig field declares, once, its default, its file section, its file
key and its unit; the parser and `dump_config` read those declarations.

Files are UTF-8 text: `[section]` headers, `key = value` lines, `#` comments.
Unset keys keep their defaults; unknown sections or keys are rejected with
line numbers. Presets `scenario1` (multi-UE VoIP on an unloaded upstream) and
`scenario2` (multi-eNB video upload at 80% upstream load) need no file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from typing import Any, Callable, NamedTuple, Optional

from .core import MS, SEC
from .bwr import BWR_FRAME_BYTES
from .docsis import DocsisError, region_duration, window_layouts
from .lte import HARQ_RTT_US, MCS_MIN, MCS_MAX, SUBFRAME_US
from .traffic import read_trace

MODES = ("baseline", "bwr", "both")
TRAFFIC_CASES = ("voip", "video")


class ConfigError(Exception):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _exp_shift(text: str, places: int) -> str:
    """A decimal text for text * 10**places, exactly: its exponent moves."""
    digits, _, exp = text.lower().partition("e")
    return f"{digits}e{int(exp or 0) + places}"


def _kbps(raw: str) -> float:
    """A kb/s text as b/s: the float nearest 1000 times its decimal value,
    which float(raw) * 1000 can miss by an ulp."""
    kbps = float(raw)                   # rejects what float() rejects
    return float(_exp_shift(raw, 3)) if math.isfinite(kbps) else kbps * 1000


def _kbps_text(bps: float) -> str:
    """The shortest kb/s text that _kbps reads back as bps: the shortest
    digits of bps, as repr prints them, with the point moved three places."""
    text = repr(bps)
    if "e" in text:                     # below 1e-4 or from 1e16 b/s on
        return _exp_shift(text, -3)
    sign = "-" if bps < 0 else ""
    whole, frac = text.lstrip("-").split(".")
    whole = whole.rjust(4, "0")
    return f"{sign}{whole[:-3]}.{(whole[-3:] + frac).rstrip('0') or '0'}"


class _Unit(NamedTuple):
    """How a setting reads from and prints to the file format."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]


# Printed text re-parses to the same value: 15 significant digits hold every
# integer count of microseconds or bit/s below 10**15 exactly.
_MS = _Unit(lambda raw: round(float(raw) * 1000), lambda us: f"{us / 1000:.15g}")
_MBPS = _Unit(lambda raw: round(float(raw) * 1e6), lambda bps: f"{bps / 1e6:.15g}")
_KBPS = _Unit(_kbps, _kbps_text)
_INT = _Unit(int, str)
_FLOAT = _Unit(float, str)
_STR = _Unit(str, str)
_ON_OFF = _Unit(_parse_bool, lambda on: "on" if on else "off")


def _section(name: str):
    """Declares the fields of one file section: key, unit, default."""
    def setting(key: str, unit: _Unit, default):
        return field(default=default,
                     metadata={"section": name, "key": key, "unit": unit})
    return setting


_simulation = _section("simulation")
_docsis = _section("docsis")
_lte = _section("lte-system")
_enb = _section("enb")
_traffic = _section("traffic")


# Slots make field reads fast: the components read them in per-event code.
@dataclass(slots=True)
class SimConfig:
    duration_us: int = _simulation("duration_ms", _MS, 2 * SEC)
    seed: int = _simulation("seed", _INT, 1)
    warmup_us: int = _simulation("warmup_ms", _MS, 100 * MS)
    mode: str = _simulation("mode", _STR, "baseline")
    map_interval_us: int = _docsis("map_interval_ms", _MS, 2 * MS)
    maps_in_advance: int = _docsis("maps_in_advance", _INT, 1)
    cmts_proc_us: int = _docsis("cmts_proc_ms", _MS, 500)
    # folded into the MAP advance; validated only
    cm_proc_us: int = _docsis("cm_proc_ms", _MS, 500)
    cm_framing_us: int = _docsis("cm_framing_ms", _MS, 1200)
    upstream_bps: int = _docsis("upstream_mbps", _MBPS, 39_000_000)
    contention_slots: int = _docsis("contention_slots", _INT, 8)
    slot_bytes: int = _docsis("slot_bytes", _INT, 16)
    backoff_init: int = _docsis("backoff_init", _INT, 8)
    backoff_max: int = _docsis("backoff_max", _INT, 64)
    propagation_us: int = _docsis("propagation_ms", _MS, 0)
    ugs_period_us: int = _docsis("ugs_period_ms", _MS, 2 * MS)
    # default: half the UGS period
    ugs_phase_us: Optional[int] = _docsis("ugs_phase_ms", _MS, None)
    ugs_grant_bytes: int = _docsis("ugs_grant_bytes", _INT, BWR_FRAME_BYTES)
    described_expiry_us: int = _docsis("described_expiry_ms", _MS, 2 * MS)
    sr_period_us: int = _lte("sr_period_ms", _MS, 5 * MS)
    sr_encode_us: int = _lte("sr_encode_ms", _MS, 500)  # floor between data arrival and SR
    sr_to_bsr_grant_us: int = _lte("sr_to_bsr_grant_ms", _MS, 4 * MS)
    grant_to_bsr_us: int = _lte("grant_to_bsr_ms", _MS, 4 * MS)
    bsr_to_data_grant_us: int = _lte("bsr_to_data_grant_ms", _MS, 4 * MS)
    grant_to_data_us: int = _lte("grant_to_data_ms", _MS, 4 * MS)
    enb_decode_us: int = _lte("enb_decode_ms", _MS, 2 * MS)  # within the 1.5-2.5 ms estimate
    bsr_period_us: int = _lte("bsr_period_ms", _MS, 10 * MS)
    mcs_mean: float = _lte("mcs_mean", _FLOAT, 22.0)
    mcs_sigma: float = _lte("mcs_sigma", _FLOAT, 2.0)
    channel_update_us: int = _lte("channel_update_ms", _MS, 10 * MS)
    harq_enabled: bool = _lte("harq", _ON_OFF, True)
    harq_bler: float = _lte("harq_bler", _FLOAT, 0.1)
    harq_max_retx: int = _lte("harq_max_retx", _INT, 4)
    enb_count: int = _enb("count", _INT, 1)
    ues_per_enb: int = _enb("ues_per_enb", _INT, 6)
    cm_count: int = _enb("cm_count", _INT, 1)
    eut_enb: int = _enb("eut", _INT, 1)
    bwr_period_us: int = _enb("bwr_period_ms", _MS, 2 * MS)
    bwr_per_lcg: bool = _enb("bwr_per_lcg", _ON_OFF, False)
    traffic_case: str = _traffic("case", _STR, "voip")
    voip_bytes: int = _traffic("voip_bytes", _INT, 60)
    voip_period_us: int = _traffic("voip_period_ms", _MS, 20 * MS)
    video_rate_bps: float = _traffic("video_rate_kbps", _KBPS, 31_000_000 / 24)  # per UE
    video_frame_period_us: int = _traffic("video_frame_period_ms", _MS, 33 * MS)
    video_burstiness: float = _traffic("video_burstiness", _FLOAT, 0.5)
    trace_path: Optional[str] = _traffic("trace_path", _STR, None)
    trace_duration_us: int = _traffic("trace_duration_ms", _MS, 4 * SEC)
    packet_mtu: int = _traffic("packet_mtu", _INT, 1400)
    lcg_voip: int = _traffic("lcg_voip", _INT, 1)
    lcg_video: int = _traffic("lcg_video", _INT, 2)

    # -- derived views -----------------------------------------------------

    def ugs_phase(self) -> int:
        if self.ugs_phase_us is not None:
            return self.ugs_phase_us % self.ugs_period_us
        return self.ugs_period_us // 2

    def _invalid(self, key: str, rule: str) -> ConfigError:
        return ConfigError(f"{key} = {getattr(self, key)}: {rule}")

    def validate(self) -> None:
        for key in ("sr_period_us", "sr_to_bsr_grant_us", "grant_to_bsr_us",
                    "bsr_to_data_grant_us", "grant_to_data_us", "enb_decode_us",
                    "bsr_period_us"):
            if getattr(self, key) <= 0:
                raise self._invalid(key, "must be positive")
        if self.sr_encode_us < 0:
            raise self._invalid("sr_encode_us", "must be >= 0")
        if self.sr_period_us % SUBFRAME_US != 0:
            raise self._invalid("sr_period_us", "must be a whole number of subframes")
        if self.map_interval_us <= 0:
            raise self._invalid("map_interval_us", "must be positive")
        if self.maps_in_advance < 1:
            raise self._invalid("maps_in_advance", "must be >= 1")
        for key in ("cmts_proc_us", "cm_proc_us", "propagation_us"):
            if getattr(self, key) < 0:
                raise self._invalid(key, "must be >= 0")
        if self.cmts_proc_us >= self.map_interval_us:
            raise self._invalid("cmts_proc_us", "must be shorter than the MAP interval")
        if self.maps_in_advance * self.map_interval_us < self.cm_proc_us:
            raise self._invalid("cm_proc_us", "MAP advance must cover CM processing lead")
        for key in ("contention_slots", "slot_bytes", "backoff_init"):
            if getattr(self, key) < 1:
                raise self._invalid(key, "must be >= 1")
        if self.backoff_max < self.backoff_init:
            raise self._invalid("backoff_max", "must be >= backoff_init")
        if self.upstream_bps <= 0:
            raise self._invalid("upstream_bps", "must be positive")
        if self.mode not in MODES:
            raise self._invalid("mode", f"must be one of {MODES}")
        if self.traffic_case not in TRAFFIC_CASES:
            raise self._invalid("traffic_case", f"must be one of {TRAFFIC_CASES}")
        if self.duration_us <= 0:
            raise self._invalid("duration_us", "must be positive")
        if self.warmup_us < 0 or self.warmup_us >= self.duration_us:
            raise self._invalid("warmup_us", "must be >= 0 and shorter than the run")
        for key in ("enb_count", "ues_per_enb"):
            if getattr(self, key) < 1:
                raise self._invalid(key, "must be >= 1")
        if self.cm_count != 1:
            raise self._invalid("cm_count", "exactly one CM is supported")
        if not 1 <= self.eut_enb <= self.enb_count:
            raise self._invalid("eut_enb", f"outside 1..{self.enb_count}")
        if self.bwr_period_us % MS != 0 or self.bwr_period_us < MS:
            raise self._invalid("bwr_period_us", "must be a whole number of subframes")
        if self.ugs_period_us <= 0:
            raise self._invalid("ugs_period_us", "must be positive")
        if self.ugs_period_us > self.bwr_period_us:
            raise self._invalid("ugs_period_us", "must not exceed the report period")
        if self.ugs_grant_bytes < BWR_FRAME_BYTES:
            raise self._invalid("ugs_grant_bytes",
                                f"cannot carry an {BWR_FRAME_BYTES}-byte report")
        if not 0 <= self.harq_bler < 1:
            raise self._invalid("harq_bler", "must be in [0, 1)")
        if self.harq_max_retx < 0:
            raise self._invalid("harq_max_retx", "must be >= 0")
        # The scheduler checks a transmission's HARQ process at grant time,
        # which holds only within one round trip; a retransmission, one round
        # trip after its attempt, is scheduled from the decode.
        if self.harq_enabled and self.grant_to_data_us >= HARQ_RTT_US:
            raise self._invalid("grant_to_data_us", f"must be shorter than the "
                                f"{HARQ_RTT_US} us HARQ round trip")
        if self.harq_enabled and self.enb_decode_us > HARQ_RTT_US:
            raise self._invalid("enb_decode_us", f"must not exceed the "
                                f"{HARQ_RTT_US} us HARQ round trip")
        if not MCS_MIN <= self.mcs_mean <= MCS_MAX:
            raise self._invalid("mcs_mean", f"must lie in [{MCS_MIN}, {MCS_MAX}]")
        if self.mcs_sigma < 0:
            raise self._invalid("mcs_sigma", "must be >= 0")
        if self.channel_update_us <= 0:
            raise self._invalid("channel_update_us", "must be positive")
        if self.packet_mtu < 1:
            raise self._invalid("packet_mtu", "must be positive")
        for key in ("lcg_voip", "lcg_video"):
            if not 0 <= getattr(self, key) < 4:
                raise self._invalid(key, "must be in 0..3")
        for key in ("voip_bytes", "voip_period_us", "video_rate_bps",
                    "video_frame_period_us"):
            if getattr(self, key) <= 0:
                raise self._invalid(key, "must be positive")
        if not math.isfinite(self.video_rate_bps):
            raise self._invalid("video_rate_bps", "must be finite")
        if (self.traffic_case == "video" and self.trace_path is None
                and self.trace_duration_us < self.video_frame_period_us):
            raise self._invalid("trace_duration_us", f"shorter than video_frame_period_us"
                                f" = {self.video_frame_period_us}")
        if self.video_burstiness < 0:
            raise self._invalid("video_burstiness", "must be >= 0")
        if region_duration(self) > self.map_interval_us:
            raise self._invalid("contention_slots", f"with slot_bytes = {self.slot_bytes}, "
                                f"the contention region overruns the MAP interval")
        # Dry-run UGS placement in each distinct MAP window of the run.
        try:
            window_layouts(self)
        except DocsisError as exc:
            raise self._invalid("ugs_grant_bytes", f"a grant every ugs_period_us = "
                                f"{self.ugs_period_us} does not fit a MAP window: "
                                f"{exc}") from exc
        if self.cm_framing_us < 0:
            raise self._invalid("cm_framing_us", "must be >= 0")
        # A report covers the grants issued since the previous build. Each must
        # still be ahead of its egress, grant_to_data_us + enb_decode_us after
        # the grant. A retransmission is announced at a decode, lead after a
        # subframe, one HARQ round trip before its egress; the next build
        # follows that decode by up to the period less the lead's fraction of
        # a subframe.
        lead = self.grant_to_data_us + self.enb_decode_us
        if self.bwr_period_us - SUBFRAME_US >= lead:
            raise self._invalid("bwr_period_us", f"must be shorter than one subframe plus "
                                f"grant_to_data_us + enb_decode_us = {lead}, or a grant "
                                f"can egress before the report that announces it")
        if (self.harq_enabled and self.harq_bler > 0 and self.harq_max_retx > 0
                and self.bwr_period_us - lead % SUBFRAME_US >= HARQ_RTT_US):
            raise self._invalid("bwr_period_us", f"must be shorter than the {HARQ_RTT_US} us "
                                f"HARQ round trip plus {lead % SUBFRAME_US} us, or a "
                                f"retransmission can egress before the report that "
                                f"announces it")
        if self.traffic_case == "video" and self.trace_path is not None:
            try:
                read_trace(self.trace_path)
            except (OSError, ValueError) as exc:
                raise self._invalid("trace_path", str(exc)) from exc


def preset(name: str) -> SimConfig:
    if name == "scenario1":
        return SimConfig(enb_count=1, ues_per_enb=6, traffic_case="voip",
                         harq_enabled=True)
    if name == "scenario2":
        return SimConfig(enb_count=4, ues_per_enb=6, traffic_case="video",
                         harq_enabled=True, eut_enb=1)
    raise ConfigError(f"unknown preset {name!r} (have: scenario1, scenario2)")


# (section, file key) -> the field that declares it
_BY_KEY = {(f.metadata["section"], f.metadata["key"]): f for f in fields(SimConfig)}
_SECTIONS = {section for section, _ in _BY_KEY}


def parse_config(path: str, base: Optional[SimConfig] = None) -> SimConfig:
    """Load a config file over defaults (or over a preset)."""
    cfg = replace(base) if base is not None else SimConfig()
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line[0] == "[" and line[-1] == "]":
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            f = _BY_KEY.get((section, key))
            if f is None:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
            try:
                setattr(cfg, f.name, f.metadata["unit"].parse(value))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    cfg.validate()
    return cfg


def dump_config(cfg: SimConfig) -> str:
    """Render the effective configuration in the file format; unset optional
    settings are left out."""
    out = []
    for section, group in groupby(fields(cfg), lambda f: f.metadata["section"]):
        out.append(f"[{section}]")
        for f in group:
            value = getattr(cfg, f.name)
            if value is not None:
                out.append(f"{f.metadata['key']} = {f.metadata['unit'].format(value)}")
        out.append("")
    return "\n".join(out)
