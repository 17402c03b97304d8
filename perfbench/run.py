#!/usr/bin/env python3
"""End-to-end benchmark of the BM-Hive simulator's host cost.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record --workload NAME --seed N

The first form builds perfbench/bmbench.exe with dune, measures the
workload and prints every metric by name and unit, the environment
stamp and the output-identity verdict; its last line is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. The second form stores the workload's simulated outputs
for that seed in perfbench/reference.json. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bmbench.exe")
EVENTS_DIR = os.path.join(BUILD_DIR, "perfbench-events")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["nginx_c400", "suite_quick"]

# Set-up is milliseconds; a median over fresh processes keeps it steady.
SETUP_SPAWNS = 31
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "./perfbench/bmbench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def child(args, runtime_params=""):
    """Run bmbench to completion and parse its tagged output lines.

    The runtime runs with its defaults plus runtime_params, whatever
    OCAMLRUNPARAM the caller has set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM", "OCAML_RUNTIME_EVENTS_START")}
    if runtime_params:
        env["OCAMLRUNPARAM"] = runtime_params
    env["OCAML_RUNTIME_EVENTS_DIR"] = EVENTS_DIR
    os.makedirs(EVENTS_DIR, exist_ok=True)
    try:
        p = subprocess.run([EXE] + args, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bmbench %s timed out" % " ".join(args))
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("bmbench %s exited with %d" % (" ".join(args), p.returncode))
    out = {"env": {}, "reps": [], "fields": {}, "violations": {}, "metrics": {}, "warnings": []}
    for line in p.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "env":
            k, _, v = rest.partition(" ")
            out["env"][k] = v
        elif tag == "rep":
            _, wall, words = rest.split()
            out["reps"].append((float(wall), float(words)))
        elif tag == "field":
            i, k, v = rest.split(" ", 2)
            out["fields"].setdefault(int(i), []).append((k, v))
        elif tag == "violation":
            i, _, text = rest.partition(" ")
            out["violations"].setdefault(int(i), []).append(text)
        elif tag == "metric":
            name, unit, v = rest.split()
            out["metrics"][name] = (float(v), unit)
        elif tag in ("setup_s", "peak_rss_kib"):
            out[tag] = float(rest)
        elif tag == "warning":
            out["warnings"].append(rest)
    return out


def first_difference(expected, got):
    """The first field whose value differs, as (key, expected, got)."""
    for i in range(max(len(expected), len(got))):
        e = expected[i] if i < len(expected) else ("<missing>", "<missing>")
        g = got[i] if i < len(got) else ("<missing>", "<missing>")
        if e != g:
            return (g[0] if e[0] == "<missing>" else e[0], e[1], g[1])
    return None


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check(out, workload, seed):
    """Output-identity verdict per repetition: (failed count, messages).

    Every repetition must match the stored reference for this seed when
    there is one, else the first repetition, and break no invariant."""
    ref = load_reference()["workloads"].get(workload, {}).get(str(seed))
    reps = sorted(out["fields"])
    if not reps:
        return 1, ["no simulated outputs"], ref is not None
    expected = list(ref.items()) if ref is not None else out["fields"][reps[0]]
    failed, msgs = 0, []
    for i in reps:
        bad = out["violations"].get(i, [])
        diff = first_difference(expected, out["fields"][i])
        if diff:
            what = "reference" if ref is not None else "repetition 0"
            bad = bad + ["%s differs from %s: expected %s, got %s" % (diff[0], what, diff[1], diff[2])]
        if bad:
            failed += 1
            msgs += ["repetition %d: %s" % (i, b) for b in bad]
    return failed, msgs, ref is not None


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure_setup(workload, seed):
    values = []
    for _ in range(SETUP_SPAWNS):
        t = time.time()
        values.append(child(["setup", workload, "--seed", str(seed), "--spawned-at", repr(t)])["setup_s"])
    return values


def untraced(workload, seed, seconds):
    setups = measure_setup(workload, seed)
    out = child(["run", workload, "--seed", str(seed), "--seconds", str(seconds)])
    walls = [w for w, _ in out["reps"]]
    words = [a / 1e6 for _, a in out["reps"]]
    rows = [
        ("wall_s", "s", walls),
        ("setup_s", "s", setups),
        ("alloc_mwords", "Mwords", words),
        ("peak_rss_mb", "MB", [out["peak_rss_kib"] * 1024 / 1e6]),
    ]
    print("%-14s %-7s %14s %14s %14s %4s" % ("metric", "unit", "median", "q1", "q3", "n"))
    metrics = {}
    for name, unit, xs in rows:
        q1, med, q3 = quartiles(xs)
        print("%-14s %-7s %14.6f %14.6f %14.6f %4d" % (name, unit, med, q1, q3, len(xs)))
        metrics[name] = {"value": med, "unit": unit}
    return out, len(out["reps"]), metrics


def traced(workload, seed):
    # A 2^19-word event ring per domain holds the GC events of the
    # largest single experiment between two polls.
    out = child(["trace", workload, "--seed", str(seed)], runtime_params="e=19")
    metrics = {}
    print("%-36s %-10s %s" % ("metric", "unit", "value"))
    for m in benchmark_spec()["per_layer"]:
        name = m["name"]
        value, unit = out["metrics"].get(name, (0.0, m["unit"]))
        note = "" if name in out["metrics"] else "  (not registered by this workload's run)"
        print("%-36s %-10s %.6g%s" % (name, unit, value, note))
        metrics[name] = {"value": value, "unit": unit}
    for name, (value, unit) in out["metrics"].items():
        if name not in metrics:
            print("%-36s %-10s %.6g" % (name, unit, value))
    for w in out["warnings"]:
        print("warning: " + w)
    return out, 2, metrics


def record(workload, seed):
    build()
    out = child(["run", workload, "--seed", str(seed), "--seconds", "0"])
    broken = [v for vs in out["violations"].values() for v in vs]
    if broken:
        fail("not recorded: " + "; ".join(broken))
    ref = load_reference()
    ref["workloads"].setdefault(workload, {})[str(seed)] = dict(out["fields"][0])
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print("recorded %s seed %d: %d fields" % (workload, seed, len(out["fields"][0])))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if a.record:
        record(a.workload, a.seed)
        return
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    if a.trace:
        out, attempted, metrics = traced(a.workload, a.seed)
    else:
        out, attempted, metrics = untraced(a.workload, a.seed, a.seconds)
    print("env: nproc %s, ocaml %s, commit %s" % (out["env"].get("nproc"), out["env"].get("ocaml"), commit()))
    failed, msgs, had_ref = check(out, a.workload, a.seed)
    held_out = load_reference()["held_out_seed"]
    print("workload %s, seed %d%s, %d repetition(s)"
          % (a.workload, a.seed, " (held-out seed)" if a.seed == held_out else "", attempted))
    for m in msgs:
        print("mismatch: " + m)
    basis = "reference for this seed" if had_ref else "repetition 0 (no reference stored for this seed)"
    print("output identity: %s against %s" % ("ok" if failed == 0 else "FAILED", basis))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
