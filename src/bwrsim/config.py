"""Run configuration: typed settings with scenario presets and a small
section/key=value file format.

Files are UTF-8 text: `[section]` headers, `key = value` lines, `#` comments.
Unset keys keep their defaults; unknown sections or keys are rejected with
line numbers. Presets `scenario1` (multi-UE VoIP on an unloaded upstream) and
`scenario2` (multi-eNB video upload at 80% upstream load) need no file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .core import MS, SEC
from .bwr import BWR_FRAME_BYTES
from .docsis import UGS, DocsisError, ServiceFlow, open_window, region_duration
from .lte import HARQ_RTT_US, MCS_MIN, MCS_MAX, SUBFRAME_US
from .traffic import read_trace

MODES = ("baseline", "bwr", "both")
TRAFFIC_CASES = ("voip", "video")


class ConfigError(Exception):
    pass


# Slots make field reads fast: the components read them in per-event code.
@dataclass(slots=True)
class SimConfig:
    # [simulation]
    duration_us: int = 2 * SEC
    seed: int = 1
    warmup_us: int = 100 * MS
    mode: str = "baseline"
    # [docsis]
    map_interval_us: int = 2 * MS
    maps_in_advance: int = 1
    cmts_proc_us: int = 500
    cm_proc_us: int = 500                   # folded into the MAP advance; validated only
    cm_framing_us: int = 1200
    upstream_bps: int = 39_000_000
    contention_slots: int = 8
    slot_bytes: int = 16
    backoff_init: int = 8
    backoff_max: int = 64
    propagation_us: int = 0
    ugs_period_us: int = 2 * MS
    ugs_phase_us: Optional[int] = None      # default: half the UGS period
    ugs_grant_bytes: int = BWR_FRAME_BYTES
    described_expiry_us: int = 2 * MS
    # [lte-system]
    sr_period_us: int = 5 * MS
    sr_encode_us: int = 500                 # floor between data arrival and SR
    sr_to_bsr_grant_us: int = 4 * MS
    grant_to_bsr_us: int = 4 * MS
    bsr_to_data_grant_us: int = 4 * MS
    grant_to_data_us: int = 4 * MS
    enb_decode_us: int = 2 * MS             # within the 1.5-2.5 ms estimate
    bsr_period_us: int = 10 * MS
    mcs_mean: float = 22.0
    mcs_sigma: float = 2.0
    channel_update_us: int = 10 * MS
    harq_enabled: bool = True
    harq_bler: float = 0.1
    harq_max_retx: int = 4
    tbs_table: Optional[tuple[int, ...]] = None   # 9 entries for MCS 18..26
    # [enb]
    enb_count: int = 1
    ues_per_enb: int = 6
    cm_count: int = 1
    eut_enb: int = 1
    bwr_period_us: int = 2 * MS
    bwr_per_lcg: bool = False
    # [traffic]
    traffic_case: str = "voip"
    voip_bytes: int = 60
    voip_period_us: int = 20 * MS
    video_rate_bps: float = 31_000_000 / 24   # per UE
    video_frame_period_us: int = 33 * MS
    video_burstiness: float = 0.5
    trace_path: Optional[str] = None
    trace_duration_us: int = 4 * SEC
    packet_mtu: int = 1400
    lcg_voip: int = 1
    lcg_video: int = 2
    # test hooks: force phases instead of drawing them
    sr_phase_us: Optional[int] = None
    arrival_phase_us: Optional[int] = None

    # -- derived views -----------------------------------------------------

    def ugs_phase(self) -> int:
        if self.ugs_phase_us is not None:
            return self.ugs_phase_us % self.ugs_period_us
        return self.ugs_period_us // 2

    def tbs_dict(self) -> Optional[dict[int, int]]:
        if self.tbs_table is None:
            return None
        return {MCS_MIN + i: v for i, v in enumerate(self.tbs_table)}

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
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.traffic_case not in TRAFFIC_CASES:
            raise ConfigError(f"traffic case must be one of {TRAFFIC_CASES}")
        if self.duration_us <= 0:
            raise ConfigError("duration must be positive")
        if self.warmup_us < 0 or self.warmup_us >= self.duration_us:
            raise ConfigError("warmup must be >= 0 and shorter than the run")
        if self.enb_count < 1 or self.ues_per_enb < 1:
            raise ConfigError("need at least one eNB and one UE")
        if self.cm_count != 1:
            raise ConfigError("exactly one CM is supported")
        if not 1 <= self.eut_enb <= self.enb_count:
            raise ConfigError(f"eut_enb {self.eut_enb} outside 1..{self.enb_count}")
        if self.bwr_period_us % MS != 0 or self.bwr_period_us < MS:
            raise ConfigError("bwr period must be a whole number of subframes")
        if self.ugs_period_us <= 0:
            raise self._invalid("ugs_period_us", "must be positive")
        if self.ugs_period_us > self.bwr_period_us:
            raise ConfigError("UGS period must not exceed the report period")
        if self.ugs_grant_bytes < BWR_FRAME_BYTES:
            raise ConfigError(
                f"UGS grant of {self.ugs_grant_bytes} B cannot carry an "
                f"{BWR_FRAME_BYTES}-byte report")
        if not 0 <= self.harq_bler < 1:
            raise ConfigError("HARQ BLER must be in [0, 1)")
        if self.harq_max_retx < 0:
            raise ConfigError("max retransmissions must be >= 0")
        # The scheduler checks a transmission's HARQ process at grant time,
        # which holds only within one round trip; a retransmission, one round
        # trip after its attempt, is scheduled from the decode.
        if self.harq_enabled and self.grant_to_data_us >= HARQ_RTT_US:
            raise self._invalid("grant_to_data_us", f"must be shorter than the "
                                f"{HARQ_RTT_US} us HARQ round trip")
        if self.harq_enabled and self.enb_decode_us > HARQ_RTT_US:
            raise self._invalid("enb_decode_us", f"must not exceed the "
                                f"{HARQ_RTT_US} us HARQ round trip")
        if self.tbs_table is not None:
            if len(self.tbs_table) != MCS_MAX - MCS_MIN + 1:
                raise ConfigError(f"tbs_table needs {MCS_MAX - MCS_MIN + 1} entries")
            if any(b <= 0 for b in self.tbs_table):
                raise ConfigError("tbs_table entries must be positive")
            if any(a > b for a, b in zip(self.tbs_table, self.tbs_table[1:])):
                raise ConfigError("tbs_table must be non-decreasing")
        if not MCS_MIN <= self.mcs_mean <= MCS_MAX:
            raise ConfigError(f"mcs_mean must lie in [{MCS_MIN}, {MCS_MAX}]")
        if self.mcs_sigma < 0:
            raise ConfigError("mcs_sigma must be >= 0")
        if self.channel_update_us <= 0:
            raise self._invalid("channel_update_us", "must be positive")
        if self.packet_mtu < 1:
            raise ConfigError("packet_mtu must be positive")
        if not 0 <= self.lcg_voip < 4 or not 0 <= self.lcg_video < 4:
            raise ConfigError("LCG ids must be in 0..3")
        if self.voip_bytes <= 0 or self.voip_period_us <= 0:
            raise ConfigError("voip parameters must be positive")
        if self.video_rate_bps <= 0 or self.video_frame_period_us <= 0:
            raise ConfigError("video parameters must be positive")
        if (self.traffic_case == "video" and self.trace_path is None
                and self.trace_duration_us < self.video_frame_period_us):
            raise self._invalid("trace_duration_us", f"shorter than video_frame_period_us"
                                f" = {self.video_frame_period_us}")
        if self.video_burstiness < 0:
            raise ConfigError("burstiness must be >= 0")
        if region_duration(self) > self.map_interval_us:
            raise ConfigError(f"contention_slots = {self.contention_slots} of "
                              f"slot_bytes = {self.slot_bytes} overrun the MAP interval")
        # Dry-run UGS placement in each distinct MAP window of the run: the
        # layout repeats every lcm(UGS period, MAP interval).
        ugs = ServiceFlow("ugs", UGS, grant_size_bytes=self.ugs_grant_bytes,
                          grant_period=self.ugs_period_us, grant_phase=self.ugs_phase())
        mi = self.map_interval_us
        windows = min(math.lcm(self.ugs_period_us, mi), self.duration_us + mi) // mi
        for k in range(windows):
            try:
                open_window((self.maps_in_advance + k) * mi, self, [ugs])
            except DocsisError as exc:
                raise ConfigError(f"ugs_grant_bytes = {self.ugs_grant_bytes} every "
                                  f"ugs_period_us = {self.ugs_period_us} does not fit "
                                  f"a MAP window: {exc}") from exc
        if self.cm_framing_us < 0:
            raise self._invalid("cm_framing_us", "must be >= 0")
        if self.arrival_phase_us is not None and self.arrival_phase_us < 0:
            raise self._invalid("arrival_phase_us", "must be >= 0")
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


def _us_from_ms(raw: str) -> int:
    return round(float(raw) * 1000)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_tbs(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


# file key -> (section, field name, parser)
_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("simulation", "duration_ms"): ("duration_us", _us_from_ms),
    ("simulation", "seed"): ("seed", int),
    ("simulation", "warmup_ms"): ("warmup_us", _us_from_ms),
    ("simulation", "mode"): ("mode", str),
    ("docsis", "map_interval_ms"): ("map_interval_us", _us_from_ms),
    ("docsis", "maps_in_advance"): ("maps_in_advance", int),
    ("docsis", "cmts_proc_ms"): ("cmts_proc_us", _us_from_ms),
    ("docsis", "cm_proc_ms"): ("cm_proc_us", _us_from_ms),
    ("docsis", "cm_framing_ms"): ("cm_framing_us", _us_from_ms),
    ("docsis", "upstream_mbps"): ("upstream_bps", lambda r: round(float(r) * 1e6)),
    ("docsis", "contention_slots"): ("contention_slots", int),
    ("docsis", "slot_bytes"): ("slot_bytes", int),
    ("docsis", "backoff_init"): ("backoff_init", int),
    ("docsis", "backoff_max"): ("backoff_max", int),
    ("docsis", "propagation_ms"): ("propagation_us", _us_from_ms),
    ("docsis", "ugs_period_ms"): ("ugs_period_us", _us_from_ms),
    ("docsis", "ugs_phase_ms"): ("ugs_phase_us", _us_from_ms),
    ("docsis", "ugs_grant_bytes"): ("ugs_grant_bytes", int),
    ("docsis", "described_expiry_ms"): ("described_expiry_us", _us_from_ms),
    ("lte-system", "sr_period_ms"): ("sr_period_us", _us_from_ms),
    ("lte-system", "sr_encode_ms"): ("sr_encode_us", _us_from_ms),
    ("lte-system", "sr_to_bsr_grant_ms"): ("sr_to_bsr_grant_us", _us_from_ms),
    ("lte-system", "grant_to_bsr_ms"): ("grant_to_bsr_us", _us_from_ms),
    ("lte-system", "bsr_to_data_grant_ms"): ("bsr_to_data_grant_us", _us_from_ms),
    ("lte-system", "grant_to_data_ms"): ("grant_to_data_us", _us_from_ms),
    ("lte-system", "enb_decode_ms"): ("enb_decode_us", _us_from_ms),
    ("lte-system", "bsr_period_ms"): ("bsr_period_us", _us_from_ms),
    ("lte-system", "mcs_mean"): ("mcs_mean", float),
    ("lte-system", "mcs_sigma"): ("mcs_sigma", float),
    ("lte-system", "channel_update_ms"): ("channel_update_us", _us_from_ms),
    ("lte-system", "harq"): ("harq_enabled", _parse_bool),
    ("lte-system", "harq_bler"): ("harq_bler", float),
    ("lte-system", "harq_max_retx"): ("harq_max_retx", int),
    ("lte-system", "tbs_table"): ("tbs_table", _parse_tbs),
    ("enb", "count"): ("enb_count", int),
    ("enb", "ues_per_enb"): ("ues_per_enb", int),
    ("enb", "cm_count"): ("cm_count", int),
    ("enb", "eut"): ("eut_enb", int),
    ("enb", "bwr_period_ms"): ("bwr_period_us", _us_from_ms),
    ("enb", "bwr_per_lcg"): ("bwr_per_lcg", _parse_bool),
    ("traffic", "case"): ("traffic_case", str),
    ("traffic", "voip_bytes"): ("voip_bytes", int),
    ("traffic", "voip_period_ms"): ("voip_period_us", _us_from_ms),
    ("traffic", "video_rate_kbps"): ("video_rate_bps", lambda r: float(r) * 1000),
    ("traffic", "video_frame_period_ms"): ("video_frame_period_us", _us_from_ms),
    ("traffic", "video_burstiness"): ("video_burstiness", float),
    ("traffic", "trace_path"): ("trace_path", str),
    ("traffic", "trace_duration_ms"): ("trace_duration_us", _us_from_ms),
    ("traffic", "packet_mtu"): ("packet_mtu", int),
    ("traffic", "lcg_voip"): ("lcg_voip", int),
    ("traffic", "lcg_video"): ("lcg_video", int),
    ("traffic", "sr_phase_ms"): ("sr_phase_us", _us_from_ms),
    ("traffic", "arrival_phase_ms"): ("arrival_phase_us", _us_from_ms),
}

_SECTIONS = sorted({section for section, _ in _SCHEMA})


def parse_config(path: str, base: Optional[SimConfig] = None) -> SimConfig:
    """Load a config file over defaults (or over a preset)."""
    cfg = replace(base) if base is not None else SimConfig()
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
            field_name, parser = entry
            try:
                setattr(cfg, field_name, parser(value))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    cfg.validate()
    return cfg


def dump_config(cfg: SimConfig) -> str:
    """Render the effective configuration in the file format."""
    by_field = {fname: (section, key) for (section, key), (fname, _) in _SCHEMA.items()}
    lines: dict[str, list[str]] = {s: [] for s in _SECTIONS}
    for f in fields(cfg):
        loc = by_field.get(f.name)
        if loc is None:
            continue
        section, key = loc
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if key.endswith("_ms") or key in ("map_interval_ms",):
            text = f"{value / 1000:g}"
        elif key == "upstream_mbps":
            text = f"{value / 1e6:g}"
        elif key == "video_rate_kbps":
            text = repr(value / 1000)            # full precision round-trip
        elif isinstance(value, bool):
            text = "on" if value else "off"
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        lines[section].append(f"{key} = {text}")
    out = []
    for section in ("simulation", "docsis", "lte-system", "enb", "traffic"):
        out.append(f"[{section}]")
        out.extend(lines[section])
        out.append("")
    return "\n".join(out)
