#!/usr/bin/env python3
"""End-to-end benchmark runner for the broker-discovery simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` binary (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload in its own process, and reads host wall time at the phase
markers the binary prints: each `@begin`/`@end` line is acknowledged on
the binary's stdin, so the clock reads land on the phase boundaries.
Each step's wall time is scaled by the host's speed at that moment (see
`reference()`).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the
`end_to_end` list of BENCHMARK.json, with `--trace 1` the `per_layer`
list. The exit code is 0 only if every correctness check passed.
`--tiny` shrinks every population (the benchmark's own tests use it).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


# The host-speed reference: a fixed pure-Python loop, timed right after
# every step while the binary waits. Other tenants of a shared host slow
# a run by a factor that drifts over seconds to tens of minutes, by a
# quarter and more, and the loop slows with it. Each step's wall time is
# scaled by REFERENCE_SECONDS over the read that followed it, so the
# host-time metrics read as on a nominal host where the loop takes
# REFERENCE_SECONDS.
REFERENCE_LOOPS = 20_000
REFERENCE_SECONDS = 0.002


def reference():
    t = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t


def run_binary(binary, args):
    """Runs the binary, timing every marked segment and the reference
    after each. Returns ({label: (wall_s, events, reference_s)}, result)."""
    proc = subprocess.Popen([binary] + args + ["--sync"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, bufsize=1)
    begins, segments, result = {}, {}, None
    for line in proc.stdout:
        now = time.perf_counter()
        if line.startswith("@begin "):
            begins[line.split()[1]] = now
        elif line.startswith("@end "):
            _, label, events = line.split()
            segments[label] = (now - begins.pop(label), int(events), reference())
        elif line.startswith("@result "):
            result = json.loads(line[len("@result "):])
            continue
        else:
            sys.stdout.write(line)
            continue
        proc.stdin.write("\n")
        proc.stdin.flush()
    proc.stdin.close()
    if proc.wait() != 0 or result is None:
        fail(f"benchmark process exited with {proc.returncode} and no result")
    return segments, result


def phase(segments, prefix):
    """The (wall, events, reference) steps whose label starts with `prefix`."""
    return [v for label, v in segments.items() if label.startswith(prefix)]


def measured(segments, prefix):
    """(events, wall seconds) summed over the measured phase's steps."""
    steps = phase(segments, prefix + "measure.")
    return sum(ev for _, ev, _ in steps), sum(wall for wall, _, _ in steps)


def nominal_seconds(steps):
    """Seconds `steps` take on the nominal host."""
    return sum(wall * REFERENCE_SECONDS / ref for wall, _, ref in steps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {opts.workload}")

    binary = build()
    args = [opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", str(opts.trace)] + (["--tiny"] if opts.tiny else [])
    segments, result = run_binary(binary, args)

    metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    checks = list(result["checks"])
    # One set-up's time: the set-ups (`setup.<k>`, or `setup.<k>.<step>`)
    # over their number.
    setups = {label.split(".")[1] for label in segments if label.startswith("setup.")}
    metrics["setup_s"] = (nominal_seconds(phase(segments, "setup.")) / len(setups), "s")
    steps = phase(segments, "measure.")
    events, wall = measured(segments, "")
    metrics["events_per_s"] = (events / nominal_seconds(steps), "1/s")
    plain = events / wall if wall > 0 else 0.0
    if opts.trace:
        # The traced copy ran step for step alongside the untraced one,
        # so the two see the same host speed: compare their wall times.
        events, wall = measured(segments, "traced.")
        traced = events / wall if wall > 0 else 0.0
        overhead = 1.0 - traced / plain if plain > 0 else 0.0
        metrics["trace.overhead_frac"] = (overhead, "frac")
        # Per-layer self times are thread CPU time. Without the wrappers'
        # own work (`trace.self_ns_per_event`) they must add up to the
        # time per event the untraced copy took, or the tracer's cost
        # went into some other layer. Only the single-threaded scale
        # workloads time their layers.
        gap = 0.0
        if metrics.get("net.sends", (0, ""))[0] > 0 and events > 0 and plain > 0:
            raw = result["raw"]
            layer_ns = (raw["traced_measure_cpu_ns"] - raw["traced_tap_ns"]) / events
            plain_ns = 1e9 / plain
            gap = layer_ns / plain_ns - 1.0
            if not opts.tiny:  # a tiny run measures too little to compare
                checks.append({
                    "name": "traced per-layer self times add up to the untraced time per event",
                    "ok": abs(gap) <= max(overhead, 0.0),
                    "detail": f"{layer_ns:.0f} ns/event traced layers vs {plain_ns:.0f} untraced "
                              f"(gap {gap:+.3f}, overhead {overhead:.3f})"})
        metrics["trace.layer_gap_frac"] = (gap, "frac")

    for label, (wall, events, ref) in sorted(segments.items()):
        print(f"  {label:<28} {wall:10.4f} s {events:>12} events  reference {ref * 1e3:.4f} ms")
    print(f"  measured phase: wall {measured(segments, '')[1]:.3f} s, "
          f"nominal {nominal_seconds(steps):.3f} s")
    for name in ("setup_s", "events_per_s", "trace.overhead_frac", "trace.layer_gap_frac"):
        if name in metrics:
            print(f"  {name:<36} {metrics[name][0]:>18.6f} {metrics[name][1]}")

    wanted = spec["end_to_end"] if opts.trace == 0 else spec["per_layer"]
    out = {}
    for m in wanted:
        value, unit = metrics.get(m["name"], (None, None))
        ok = value is not None and unit == m["unit"] and math.isfinite(value)
        if ok and opts.trace == 0:
            ok = value > 0  # end-to-end metrics are never 0 on a healthy run
        checks.append({"name": f"metric {m['name']} [{m['unit']}] emitted",
                       "ok": ok, "detail": f"{value} {unit}"})
        if value is not None:
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    for c in checks:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    correct = all(c["ok"] for c in checks)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
