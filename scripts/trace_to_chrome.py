#!/usr/bin/env python3
"""Convert a flight-recorder JSONL dump to Chrome tracing format.

The flight recorder — the RequestTracer's always-on tail retention
(src/obs/trace.h) — exports retained traces as JSONL: one self-contained
object per line with the completion metadata (latency, unattributed
remainder, outcome, a coalesced request's leader_trace_id, and for
row-capped requests the plan and its execution) and the trace's spans
inline. This script turns that into the Chrome tracing /
Perfetto JSON event format, so a tail-latency investigation is one drag-and-
drop away from a timeline:

    ./build/examples/statusz 200 --flight-jsonl=/tmp/flight.jsonl
    scripts/trace_to_chrome.py /tmp/flight.jsonl > /tmp/flight_trace.json
    # open https://ui.perfetto.dev (or chrome://tracing) and load the file

Layout: each retained trace becomes one "process" (pid = rank by latency,
slowest first, so the worst request sorts to the top of the timeline), named
after the query, outcome, and end-to-end latency. Spans become complete
("ph": "X") events at their recorded start/duration; a span-less shell (a
retained cache hit — the hit path allocates no spans by design) still gets
one synthetic event covering its full latency so it is visible on the
timeline. A coalesced request's leader_trace_id is in its event args: find
the process whose name ends in that #id to see the beam search it waited
on. Stdlib only; reads a path or stdin.
"""

import argparse
import json
import sys

# Stable tid per stage so every trace lays out its stages in the same
# vertical order (request-level bar on top, then the pipeline stages).
STAGE_TIDS = {
    "request": 0,
    "fingerprint": 1,
    "cache_lookup": 2,
    "coalesce_wait": 3,
    "queue_wait": 4,
    "beam_search": 5,
    "inference": 6,
    "admit": 7,
    "exec_scan": 8,
    "exec_join": 9,
    "reanalyze": 10,
}


def load_traces(stream):
    traces = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            traces.append(json.loads(line))
        except json.JSONDecodeError as err:
            print(f"warning: line {lineno} is not JSON ({err}); skipped",
                  file=sys.stderr)
    return traces


def convert(traces):
    # Slowest first: pid order is how chrome://tracing sorts processes.
    traces = sorted(traces, key=lambda t: -float(t.get("latency_us", 0)))
    events = []
    for pid, trace in enumerate(traces, start=1):
        latency = float(trace.get("latency_us", 0))
        name = "{} [{}] {:.0f}us #{}".format(
            trace.get("query", "?"), trace.get("outcome", "?"), latency,
            trace.get("trace_id", 0))
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        flags = []
        if trace.get("error"):
            flags.append("error")
        if trace.get("capped"):
            flags.append("row-capped")
        # One request-level bar spanning the whole latency, so span-less
        # shells (retained hits) are still visible and spanned traces show
        # their instrumented share against the end-to-end time.
        events.append({
            "ph": "X", "pid": pid, "tid": STAGE_TIDS["request"],
            "ts": 0.0, "dur": latency,
            "name": "request ({})".format(trace.get("reason", "?")),
            "cat": trace.get("outcome", "?"),
            "args": {
                "trace_id": trace.get("trace_id", 0),
                "fingerprint": trace.get("fingerprint", ""),
                "leader_trace_id": trace.get("leader_trace_id", 0),
                "unattributed_us": trace.get("unattributed_us", 0),
                "flags": ",".join(flags) or "none",
                "plan": trace.get("plan", ""),
            },
        })
        for span in trace.get("spans", []):
            stage = span.get("stage", "?")
            events.append({
                "ph": "X", "pid": pid,
                "tid": STAGE_TIDS.get(stage, len(STAGE_TIDS)),
                "ts": float(span.get("start_us", 0)),
                "dur": float(span.get("dur_us", 0)),
                "name": stage, "cat": stage,
            })
        for stage, tid in STAGE_TIDS.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": stage},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main():
    parser = argparse.ArgumentParser(
        description="flight-recorder JSONL -> Chrome tracing JSON")
    parser.add_argument("jsonl", nargs="?", default="-",
                        help="flight JSONL dump (default: stdin)")
    parser.add_argument("-o", "--output", default="-",
                        help="output path (default: stdout)")
    args = parser.parse_args()

    if args.jsonl == "-":
        traces = load_traces(sys.stdin)
    else:
        with open(args.jsonl, encoding="utf-8") as f:
            traces = load_traces(f)
    if not traces:
        print("warning: no traces in input; writing an empty timeline",
              file=sys.stderr)

    document = convert(traces)
    if args.output == "-":
        json.dump(document, sys.stdout)
        sys.stdout.write("\n")
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(document, f)
            f.write("\n")
        print(f"wrote {len(document['traceEvents'])} events "
              f"({len(traces)} traces) to {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
