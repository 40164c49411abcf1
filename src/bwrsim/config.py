"""Run configuration: typed settings with scenario presets and a small
section/key=value file format.

Each SimConfig field declares, once, its type, default, file section, file
key, unit and, for a setting checked on its own, the values it accepts; the
parser, `dump_config` and `validate()` read those declarations.

Files are UTF-8 text: `[section]` headers, `key = value` lines, `#` comments.
The parser returns the settings a file sets and rejects unknown sections or
keys with line numbers. A preset (`PRESETS`) holds only the settings in which
it differs from the defaults.
"""

# Annotations stay objects (no `from __future__ import annotations`):
# validate() checks each value against its field's.
import math
import sys
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import Any, Callable, NamedTuple

from .core import MS, SEC
from .bwr import BWR_FRAME_BYTES
from .docsis import DocsisError, ceil_div, region_duration, window_layouts
from .lte import HARQ_RTT_US, MCS_MIN, MCS_MAX, NUM_LCGS, SUBFRAME_US
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


class _Domain(NamedTuple):
    """The values a setting accepts on its own, and the rule that says so.
    It states what passes, not what fails, so NaN fails every domain."""

    accepts: Callable[[Any], bool]
    rule: str


def _one_of(names: tuple[str, ...]) -> _Domain:
    return _Domain(lambda name: name in names, f"must be one of {names}")


_POSITIVE = _Domain(lambda v: v > 0, "must be positive")
_NON_NEGATIVE = _Domain(lambda v: v >= 0, "must be >= 0")
_FINITE_NON_NEGATIVE = _Domain(lambda v: 0 <= v < math.inf, "must be finite and >= 0")
_SUBFRAMES = _Domain(lambda us: us > 0 and us % SUBFRAME_US == 0,
                     "must be a positive whole number of subframes")
_LCG = _Domain(lambda lcg: 0 <= lcg < NUM_LCGS, f"must be in 0..{NUM_LCGS - 1}")
# The largest burstiness b whose b * b (the log-normal's variance) is finite.
_BURSTINESS_MAX = math.sqrt(sys.float_info.max)
# validate() divides the synthetic trace's bytes, a float, by the MTU.
_MTU = _Domain(lambda n: 0 < n <= sys.float_info.max,
               f"must be positive and at most {sys.float_info.max!r}")
# The run keeps the whole trace: a million frames, 9 hours of 33 ms frames,
# hold about 130 MB.
TRACE_MAX_FRAMES = 1_000_000
# The run makes a frame's packets at one instant: 100,000 of them, a 140 MB
# frame at the default 1400-byte MTU, hold about 30 MB.
FRAME_MAX_PACKETS = 100_000
# What the UEs offer beyond what the upstream carries is still queued when the
# run ends: a queued packet holds about 300 bytes (measured with tracemalloc),
# so a million of them hold about 300 MB.
RUN_MAX_BACKLOG_PACKETS = 1_000_000


def _section(name: str):
    """Declares the fields of one file section: key, unit, default and, for a
    setting checked on its own, its domain."""
    def setting(key: str, unit: _Unit, default, domain: _Domain | None = None):
        return field(default=default, metadata={"section": name, "key": key,
                                                "unit": unit, "domain": domain})
    return setting


_simulation = _section("simulation")
_docsis = _section("docsis")
_lte = _section("lte-system")
_enb = _section("enb")
_traffic = _section("traffic")


# Validated when built, then frozen; slots make the per-event field reads fast.
@dataclass(slots=True, frozen=True)
class SimConfig:
    duration_us: int = _simulation("duration_ms", _MS, 2 * SEC, _POSITIVE)
    seed: int = _simulation("seed", _INT, 1)
    warmup_us: int = _simulation("warmup_ms", _MS, 100 * MS, _NON_NEGATIVE)
    mode: str = _simulation("mode", _STR, "baseline", _one_of(MODES))
    map_interval_us: int = _docsis("map_interval_ms", _MS, 2 * MS, _POSITIVE)
    maps_in_advance: int = _docsis("maps_in_advance", _INT, 1, _POSITIVE)
    cmts_proc_us: int = _docsis("cmts_proc_ms", _MS, 500, _NON_NEGATIVE)
    # folded into the MAP advance; validated only
    cm_proc_us: int = _docsis("cm_proc_ms", _MS, 500, _NON_NEGATIVE)
    cm_framing_us: int = _docsis("cm_framing_ms", _MS, 1200, _NON_NEGATIVE)
    upstream_bps: int = _docsis("upstream_mbps", _MBPS, 39_000_000, _POSITIVE)
    contention_slots: int = _docsis("contention_slots", _INT, 8, _POSITIVE)
    slot_bytes: int = _docsis("slot_bytes", _INT, 16, _POSITIVE)
    backoff_init: int = _docsis("backoff_init", _INT, 8, _POSITIVE)
    backoff_max: int = _docsis("backoff_max", _INT, 64)
    propagation_us: int = _docsis("propagation_ms", _MS, 0, _NON_NEGATIVE)
    ugs_period_us: int = _docsis("ugs_period_ms", _MS, 2 * MS, _POSITIVE)
    # default: half the UGS period
    ugs_phase_us: int | None = _docsis("ugs_phase_ms", _MS, None)
    ugs_grant_bytes: int = _docsis("ugs_grant_bytes", _INT, BWR_FRAME_BYTES, _Domain(
        lambda n: n >= BWR_FRAME_BYTES, f"cannot carry an {BWR_FRAME_BYTES}-byte report"))
    # credit ends at its report's egress; validated only
    described_expiry_us: int = _docsis("described_expiry_ms", _MS, 2 * MS, _NON_NEGATIVE)
    sr_period_us: int = _lte("sr_period_ms", _MS, 5 * MS, _SUBFRAMES)
    sr_encode_us: int = _lte("sr_encode_ms", _MS, 500, _NON_NEGATIVE)  # floor: arrival to SR
    sr_to_bsr_grant_us: int = _lte("sr_to_bsr_grant_ms", _MS, 4 * MS, _POSITIVE)
    grant_to_bsr_us: int = _lte("grant_to_bsr_ms", _MS, 4 * MS, _POSITIVE)
    bsr_to_data_grant_us: int = _lte("bsr_to_data_grant_ms", _MS, 4 * MS, _POSITIVE)
    grant_to_data_us: int = _lte("grant_to_data_ms", _MS, 4 * MS, _POSITIVE)
    enb_decode_us: int = _lte("enb_decode_ms", _MS, 2 * MS, _POSITIVE)  # 1.5-2.5 ms estimate
    bsr_period_us: int = _lte("bsr_period_ms", _MS, 10 * MS, _POSITIVE)
    mcs_mean: float = _lte("mcs_mean", _FLOAT, 22.0, _Domain(
        lambda m: MCS_MIN <= m <= MCS_MAX, f"must lie in [{MCS_MIN}, {MCS_MAX}]"))
    mcs_sigma: float = _lte("mcs_sigma", _FLOAT, 2.0, _FINITE_NON_NEGATIVE)
    channel_update_us: int = _lte("channel_update_ms", _MS, 10 * MS, _POSITIVE)
    harq_enabled: bool = _lte("harq", _ON_OFF, True)
    harq_bler: float = _lte("harq_bler", _FLOAT, 0.1,
                            _Domain(lambda p: 0 <= p < 1, "must be in [0, 1)"))
    harq_max_retx: int = _lte("harq_max_retx", _INT, 4, _NON_NEGATIVE)
    enb_count: int = _enb("count", _INT, 1, _POSITIVE)
    ues_per_enb: int = _enb("ues_per_enb", _INT, 6, _POSITIVE)
    cm_count: int = _enb("cm_count", _INT, 1,
                         _Domain(lambda n: n == 1, "exactly one CM is supported"))
    # a config of any mode may run in bwr (runner.run_single takes its mode)
    eut_enb: int = _enb("eut", _INT, 1, _Domain(
        lambda n: n <= 0xFFFF, "a report carries it in a 16-bit field"))
    bwr_period_us: int = _enb("bwr_period_ms", _MS, 2 * MS, _SUBFRAMES)
    bwr_per_lcg: bool = _enb("bwr_per_lcg", _ON_OFF, False)
    traffic_case: str = _traffic("case", _STR, "voip", _one_of(TRAFFIC_CASES))
    voip_bytes: int = _traffic("voip_bytes", _INT, 60, _POSITIVE)
    voip_period_us: int = _traffic("voip_period_ms", _MS, 20 * MS, _POSITIVE)
    # per UE
    video_rate_bps: float = _traffic("video_rate_kbps", _KBPS, 31_000_000 / 24, _Domain(
        lambda bps: 0 < bps < math.inf, "must be positive and finite"))
    video_frame_period_us: int = _traffic("video_frame_period_ms", _MS, 33 * MS, _POSITIVE)
    video_burstiness: float = _traffic("video_burstiness", _FLOAT, 0.5, _Domain(
        lambda b: 0 <= b <= _BURSTINESS_MAX, f"must lie in [0, {_BURSTINESS_MAX!r}]"))
    trace_path: str | None = _traffic("trace_path", _STR, None)
    trace_duration_us: int = _traffic("trace_duration_ms", _MS, 4 * SEC)
    packet_mtu: int = _traffic("packet_mtu", _INT, 1400, _MTU)
    lcg_voip: int = _traffic("lcg_voip", _INT, 1, _LCG)
    lcg_video: int = _traffic("lcg_video", _INT, 2, _LCG)

    def __post_init__(self):
        self.validate()

    # -- derived views -----------------------------------------------------

    def ugs_phase(self) -> int:
        if self.ugs_phase_us is not None:
            return self.ugs_phase_us % self.ugs_period_us
        return self.ugs_period_us // 2

    def _invalid(self, key: str, rule: str) -> ConfigError:
        return ConfigError(f"{key} = {getattr(self, key)}: {rule}")

    def validate(self) -> None:
        """Each setting against its declared type and domain, then the rules
        that read two or more settings and the dry runs."""
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int to isinstance, but not to the file format
            if (not isinstance(value, f.type)
                    or isinstance(value, bool) and f.type is not bool):
                raise self._invalid(f.name, f"must be {getattr(f.type, '__name__', f.type)}")
            domain = f.metadata["domain"]
            if domain is not None and not domain.accepts(value):
                raise self._invalid(f.name, domain.rule)
        if self.cmts_proc_us >= self.map_interval_us:
            raise self._invalid("cmts_proc_us", "must be shorter than the MAP interval")
        if self.maps_in_advance * self.map_interval_us < self.cm_proc_us:
            raise self._invalid("cm_proc_us", "MAP advance must cover CM processing lead")
        if self.backoff_max < self.backoff_init:
            raise self._invalid("backoff_max", "must be >= backoff_init")
        if self.warmup_us >= self.duration_us:
            raise self._invalid("warmup_us", "must be shorter than the run")
        if not 1 <= self.eut_enb <= self.enb_count:
            raise self._invalid("eut_enb", f"outside 1..{self.enb_count}")
        if self.ugs_period_us > self.bwr_period_us:
            raise self._invalid("ugs_period_us", "must not exceed the report period")
        # The scheduler checks a transmission's HARQ process at grant time,
        # which holds only within one round trip; a retransmission, one round
        # trip after its attempt, is scheduled from the decode.
        if self.harq_enabled and self.grant_to_data_us >= HARQ_RTT_US:
            raise self._invalid("grant_to_data_us", f"must be shorter than the "
                                f"{HARQ_RTT_US} us HARQ round trip")
        if self.harq_enabled and self.enb_decode_us > HARQ_RTT_US:
            raise self._invalid("enb_decode_us", f"must not exceed the "
                                f"{HARQ_RTT_US} us HARQ round trip")
        if self.traffic_case == "video" and self.trace_path is None:
            if self.trace_duration_us < self.video_frame_period_us:
                raise self._invalid("trace_duration_us", f"shorter than video_frame_period_us"
                                    f" = {self.video_frame_period_us}")
            frames = self.trace_duration_us // self.video_frame_period_us
            if frames > TRACE_MAX_FRAMES:
                raise self._invalid("trace_duration_us", f"{frames} frames of "
                                    f"video_frame_period_us = {self.video_frame_period_us}"
                                    f" are more than the {TRACE_MAX_FRAMES} a trace may hold")
            # The synthetic trace's bytes, as synth_video sums them: one frame
            # may draw nearly all of them.
            trace_bytes = self.video_rate_bps * self.video_frame_period_us / 8e6 * frames
            if not trace_bytes / self.packet_mtu <= FRAME_MAX_PACKETS:
                raise self._invalid("video_rate_bps", f"the synthetic trace's "
                                    f"{trace_bytes:g} bytes, in packets of packet_mtu"
                                    f" = {self.packet_mtu}, are more than the "
                                    f"{FRAME_MAX_PACKETS} packets a frame may split into")
        if region_duration(self) > self.map_interval_us:
            raise self._invalid("contention_slots", f"with slot_bytes = {self.slot_bytes}, "
                                f"the contention region overruns the MAP interval")
        # Dry-run UGS placement in each distinct MAP window of the run.
        try:
            window_layouts(self)
        except DocsisError as exc:
            # A grant that fits at the default phase is misplaced, not too large.
            if self.ugs_phase_us is not None:
                default = self.ugs_period_us // 2
                try:
                    window_layouts(self, default)
                except DocsisError:
                    pass
                else:
                    raise self._invalid("ugs_phase_us", f"puts a grant of ugs_grant_bytes"
                                        f" = {self.ugs_grant_bytes} where it does not fit"
                                        f" a MAP window, although it fits at the default"
                                        f" phase {default}: {exc}") from exc
            raise self._invalid("ugs_grant_bytes", f"a grant every ugs_period_us = "
                                f"{self.ugs_period_us} does not fit a MAP window: "
                                f"{exc}") from exc
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
                trace = read_trace(self.trace_path)
            except (OSError, ValueError) as exc:
                raise self._invalid("trace_path", str(exc)) from exc
            largest = max(nbytes for _, nbytes in trace.records)
            if (len(trace.records) > TRACE_MAX_FRAMES
                    or ceil_div(largest, self.packet_mtu) > FRAME_MAX_PACKETS):
                raise self._invalid("trace_path", f"{len(trace.records)} frames, the largest "
                                    f"of {largest} bytes: a trace may hold "
                                    f"{TRACE_MAX_FRAMES} frames, each of "
                                    f"{FRAME_MAX_PACKETS} packets of packet_mtu = "
                                    f"{self.packet_mtu}")
        # The bytes of the trace a UE replays, its loop length, its frames,
        # and the MTU that splits them (a VoIP packet never splits).
        if self.traffic_case == "voip":
            loop_bytes, loop_us, loop_frames, mtu = (self.voip_bytes, self.voip_period_us, 1,
                                                     self.voip_bytes)
        elif self.trace_path is None:
            loop_bytes, loop_us, loop_frames, mtu = (
                round(trace_bytes), frames * self.video_frame_period_us, frames,
                self.packet_mtu)
        else:
            loop_bytes, loop_us, loop_frames, mtu = (
                trace.total_bytes(), trace.duration, len(trace.records), self.packet_mtu)
        # Each UE offers its trace once per loop the run spans; what the
        # upstream does not carry in the run is still queued at its end. A
        # frame smaller than the MTU is one smaller packet, so the queued
        # bytes count in packets of at most the mean frame (and of 1 byte
        # at least). Integer arithmetic, in bytes times 8e6: a setting may
        # exceed a float.
        offered = (self.enb_count * self.ues_per_enb * loop_bytes
                   * ceil_div(self.duration_us, loop_us))
        backlog = offered * 8_000_000 - self.upstream_bps * self.duration_us
        packet = max(1, min(mtu, loop_bytes // loop_frames))
        if backlog > RUN_MAX_BACKLOG_PACKETS * packet * 8_000_000:
            raise self._invalid("duration_us", f"the UEs offer "
                                f"{offered * 8_000_000 // self.duration_us} b/s over the run "
                                f"and upstream_bps carries {self.upstream_bps} b/s: more than"
                                f" {RUN_MAX_BACKLOG_PACKETS} packets of {packet} bytes would"
                                f" still be queued at its end")


PRESETS = {"scenario1": {}, "scenario2": {"enb_count": 4, "traffic_case": "video"}}


def preset(name: str) -> SimConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have: {', '.join(PRESETS)})")
    return SimConfig(**PRESETS[name])


# (section, file key) -> the field that declares it
_BY_KEY = {(f.metadata["section"], f.metadata["key"]): f for f in fields(SimConfig)}
_SECTIONS = {section for section, _ in _BY_KEY}


def parse_setting(section: str, key: str, text: str, where: str = "") -> tuple[str, Any]:
    """The field a key sets, and its text read in the key's unit; `where` prefixes errors."""
    f = _BY_KEY.get((section, key))
    if f is None:
        raise ConfigError(f"{where}unknown key {key!r} in [{section}]")
    try:
        return f.name, f.metadata["unit"].parse(text)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from exc


def parse_config(path: str) -> dict[str, Any]:
    """The settings a config file sets, by field name; not validated."""
    settings = []
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
            key, text = (part.strip() for part in line.split("=", 1))
            settings.append(parse_setting(section, key, text, f"{path}:{lineno}: "))
    return dict(settings)


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
