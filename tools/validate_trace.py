#!/usr/bin/env python3
"""Well-formedness checker for traces emitted by the observability layer.

Independent of the C++ trace reader on purpose: this is the second
opinion that an emitted file really is Chrome trace_event JSON that
Perfetto / chrome://tracing will load. Checks:

  * the file parses as JSON and has a traceEvents list;
  * every event has name/ph/pid/tid/ts fields of the right types;
  * ph is one of the phases the emitter produces (X B E i C M);
  * 'X' events carry a non-negative dur;
  * timestamps are non-decreasing per (pid, tid) track in buffer order
    (Perfetto requires sorted tracks for correct nesting);
  * 'B'/'E' events balance per (pid, tid), never closing an empty stack;
  * flight-recorder exports are well-formed: record.* / replay.*
    counters carry an integer value arg, and the
    flight_recorder_schema metadata event carries an integer version;
  * serving-subsystem exports are well-formed: serve.* counters carry a
    non-negative integer value, and a serving run emits the full epoch
    triple (serve.qdepth, serve.generated, serve.completed) with
    generated >= completed on every sample;
  * hybrid-data-plane exports are well-formed: arbiter.* and paged.*
    counters carry non-negative integer values, an arbiter decision
    sample emits the full triple (arbiter.paged_sites,
    arbiter.guard_sites, arbiter.pgo_tiebreaks), and the cumulative
    paged-plane counters (major_faults, minor_faults, reclaims) are
    monotone per track — paged.resident_pages is a gauge and may move
    both ways;
  * nothing was dropped: otherData.dropped, the count of events the
    emitter's full buffer turned away, is zero when present (a
    truncated trace would otherwise validate as a short one).

Exit status 0 when valid; 1 with a diagnostic on the first failure.
"""

import json
import sys

VALID_PHASES = {"X", "B", "E", "i", "C", "M"}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: no traceEvents object")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    dropped = doc.get("otherData", {}).get("dropped", 0)
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"{path}: bad otherData.dropped {dropped!r}")
    if dropped > 0:
        fail(f"{path}: truncated: the trace buffer dropped {dropped} events")

    last_ts = {}  # (pid, tid) -> last timestamp seen in buffer order
    depth = {}  # (pid, tid) -> open 'B' span count
    serve_counters = {}  # serve.* name -> [(track, ts, value), ...]
    arbiter_counters = {}  # arbiter.* name -> [(track, ts, value), ...]
    paged_counters = {}  # paged.* name -> [(track, ts, value), ...]
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"event {i}: not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in e:
                fail(f"event {i}: missing {field}")
        ph = e["ph"]
        if ph not in VALID_PHASES:
            fail(f"event {i}: unknown phase {ph!r}")
        if ph == "M":
            if e["name"] == "flight_recorder_schema":
                version = e.get("args", {}).get("version")
                if not isinstance(version, int) or version < 1:
                    fail(
                        f"event {i}: flight_recorder_schema metadata "
                        f"without positive integer version "
                        f"({version!r})"
                    )
            continue  # metadata carries no timestamp
        if "ts" not in e:
            fail(f"event {i}: missing ts")
        if not isinstance(e["ts"], int) or e["ts"] < 0:
            fail(f"event {i}: bad ts {e['ts']!r}")
        track = (e["pid"], e["tid"])
        if e["ts"] < last_ts.get(track, 0):
            fail(
                f"event {i} ({e['name']}): ts {e['ts']} goes backwards "
                f"on track pid={track[0]} tid={track[1]} "
                f"(last was {last_ts[track]})"
            )
        last_ts[track] = e["ts"]
        if ph == "X":
            if not isinstance(e.get("dur"), int) or e["dur"] < 0:
                fail(f"event {i}: 'X' without non-negative dur")
        elif ph == "B":
            depth[track] = depth.get(track, 0) + 1
        elif ph == "E":
            if depth.get(track, 0) == 0:
                fail(f"event {i}: 'E' with no open 'B' on {track}")
            depth[track] -= 1
        elif ph == "i":
            if e.get("s", "t") not in ("t", "p", "g"):
                fail(f"event {i}: bad instant scope {e.get('s')!r}")
        elif ph == "C":
            if e["name"].startswith(("record.", "replay.")):
                value = e.get("args", {}).get("value")
                if not isinstance(value, int) or value < 0:
                    fail(
                        f"event {i} ({e['name']}): flight-recorder "
                        f"counter without non-negative integer value "
                        f"({value!r})"
                    )
            elif e["name"].startswith("serve."):
                value = e.get("args", {}).get("value")
                if not isinstance(value, int) or value < 0:
                    fail(
                        f"event {i} ({e['name']}): serving counter "
                        f"without non-negative integer value "
                        f"({value!r})"
                    )
                serve_counters.setdefault(e["name"], []).append(
                    (track, e["ts"], value)
                )
            elif e["name"].startswith(("arbiter.", "paged.")):
                value = e.get("args", {}).get("value")
                if not isinstance(value, int) or value < 0:
                    fail(
                        f"event {i} ({e['name']}): hybrid data-plane "
                        f"counter without non-negative integer value "
                        f"({value!r})"
                    )
                bucket = (
                    arbiter_counters
                    if e["name"].startswith("arbiter.")
                    else paged_counters
                )
                bucket.setdefault(e["name"], []).append(
                    (track, e["ts"], value)
                )

    open_spans = {t: d for t, d in depth.items() if d}
    if open_spans:
        fail(f"unbalanced begin/end spans at EOF: {open_spans}")

    if serve_counters:
        # A serving run's epoch sample is the qdepth/generated/completed
        # triple; a missing member means the scheduler's counterSample
        # list regressed.
        for member in ("serve.qdepth", "serve.generated",
                       "serve.completed"):
            if member not in serve_counters:
                fail(
                    f"serving counters present but {member} missing "
                    f"(have: {sorted(serve_counters)})"
                )
        # generated/completed are cumulative: monotone per track, and
        # completed can never overtake generated at a shared timestamp.
        for name in ("serve.generated", "serve.completed"):
            by_track = {}
            for track, ts, value in serve_counters[name]:
                prev = by_track.get(track)
                if prev is not None and value < prev:
                    fail(
                        f"{name} went backwards on track {track} "
                        f"({prev} -> {value})"
                    )
                by_track[track] = value
        gen = {
            (track, ts): value
            for track, ts, value in serve_counters["serve.generated"]
        }
        for track, ts, value in serve_counters["serve.completed"]:
            if (track, ts) in gen and value > gen[(track, ts)]:
                fail(
                    f"serve.completed {value} exceeds serve.generated "
                    f"{gen[(track, ts)]} at ts {ts}"
                )

    if arbiter_counters:
        # The arbiter emits its decision totals as one sample triple
        # after the pass pipeline; a missing member means the
        # System-side export regressed.
        for member in ("arbiter.paged_sites", "arbiter.guard_sites",
                       "arbiter.pgo_tiebreaks"):
            if member not in arbiter_counters:
                fail(
                    f"arbiter counters present but {member} missing "
                    f"(have: {sorted(arbiter_counters)})"
                )

    # The paged plane's fault/reclaim counters are cumulative: monotone
    # per track. resident_pages is a gauge (reclaim shrinks it).
    for name in ("paged.major_faults", "paged.minor_faults",
                 "paged.reclaims"):
        by_track = {}
        for track, ts, value in paged_counters.get(name, []):
            prev = by_track.get(track)
            if prev is not None and value < prev:
                fail(
                    f"{name} went backwards on track {track} "
                    f"({prev} -> {value})"
                )
            by_track[track] = value

    n_timed = sum(1 for e in events if e.get("ph") != "M")
    n_recorder = sum(
        1
        for e in events
        if e.get("ph") == "C"
        and e.get("name", "").startswith(("record.", "replay."))
    )
    summary = (
        f"validate_trace: OK: {path}: {len(events)} events "
        f"({n_timed} timed, {len(last_ts)} tracks"
    )
    if n_recorder:
        summary += f", {n_recorder} recorder counters"
    n_serving = sum(len(v) for v in serve_counters.values())
    if n_serving:
        summary += f", {n_serving} serving counters"
    n_hybrid = sum(len(v) for v in arbiter_counters.values()) + sum(
        len(v) for v in paged_counters.values()
    )
    if n_hybrid:
        summary += f", {n_hybrid} hybrid counters"
    print(summary + ")")


def main():
    if len(sys.argv) != 2:
        print("usage: validate_trace.py <trace.json>", file=sys.stderr)
        sys.exit(2)
    validate(sys.argv[1])


if __name__ == "__main__":
    main()
