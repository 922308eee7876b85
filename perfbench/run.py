#!/usr/bin/env python3
"""Build and run the committed benchmark (see perfbench/BENCHMARK.md).

One measurement (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
A full set: every workload once per seed, each in its own process, plus
one traced run per workload, written to one JSON file:
    python3 perfbench/run.py --set OUT.json [--seeds 1-10] [--seconds T]
Two sets against the BENCHMARK.json bounds, one row per workload:
    python3 perfbench/run.py --compare BASE.json NEW.json

Run from the repository root. The benchmark builds itself (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
VIRTUAL = ("makespan_ms", "efficiency", "phase_p50_us", "phase_p99_us")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC.name}: {e}")


def build():
    """Configures (once) and builds scioto_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no scioto sources at src/ next to perfbench/; nothing to build")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    bdir = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "--target", "scioto_bench",
                 "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir / "scioto_bench"


def measure(binary, spec, workload, seed, seconds, trace):
    """One scioto_bench process; returns its checked JSON result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: scioto_bench exited {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        return result  # failed checks; its metrics may be incomplete
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{workload}: metric {m['name']} [{m['unit']}] missing")
    return result


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(out_path, seeds, seconds):
    spec = load_spec()
    binary = build()
    doc = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for s in seeds:
            r = measure(binary, spec, name, s, seconds, 0)
            if not r["correct"]:
                fail(f"{name} seed {s}: outputs did not verify")
            runs.append({"seed": s, **r})
            print(f"{name} seed {s}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                file=sys.stderr)
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {"unit": m["unit"],
                                  "median": statistics.median(vals),
                                  "spread": spread(vals)}
        doc["workloads"][name] = {
            "runs": runs, "summary": summary,
            "traced": measure(binary, spec, name, seeds[0], seconds, 1)}
    Path(out_path).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'workload':20s}" + "".join(
        f"{m['name']:>14s}" for m in spec["end_to_end"]))
    for name, wd in doc["workloads"].items():
        print(f"{name:20s}" + "".join(
            f"{wd['summary'][m['name']]['spread']:>13.2%} "
            for m in spec["end_to_end"]))
    print("(quartile spread over seeds, as a share of the median)")


def verdict(metric, base, new):
    """(change as a share of the base median, positive = worse; verdict)."""
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (mn - mb) / mb + 0.0 if mb else 0.0  # + 0.0: no "-0.00%"
    bound = metric["bound"]
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return worse, "unresolved"
    return worse, "REGRESSION" if worse > bound else "ok"


def compare(base_path, new_path):
    spec = load_spec()
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    rank = {"ok": 0, "unresolved": 1, "REGRESSION": 2}
    worst_all = "ok"
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':20s}{'verdict':>12s}{'virtual':>10s}" +
          "".join(f"{n:>14s}" for n in names))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name:20s}{'missing':>12s}")
            worst_all = "REGRESSION"
            continue
        b = {r["seed"]: r["metrics"] for r in base[name]["runs"]}
        n = {r["seed"]: r["metrics"] for r in new[name]["runs"]}
        cells, worst = [], "ok"
        for m in spec["end_to_end"]:
            bv = [r[m["name"]]["value"] for r in b.values()]
            nv = [r[m["name"]]["value"] for r in n.values()]
            change, v = verdict(m, bv, nv)
            worst = max(worst, v, key=rank.get)
            mark = {"ok": "", "unresolved": "?", "REGRESSION": "!"}[v]
            cells.append(f"{change:>+12.2%}{mark:1s} ")
        same = b.keys() == n.keys() and all(
            b[s][k]["value"] == n[s][k]["value"] for s in b for k in VIRTUAL)
        print(f"{name:20s}{worst:>12s}{'same' if same else 'differ':>10s}" +
              "".join(cells))
        worst_all = max(worst_all, worst, key=rank.get)
    print("(change of the median, positive = worse; ? = spread wider than the "
          "bound, ! = worse by more than the bound)")
    return 1 if worst_all == "REGRESSION" else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", metavar="OUT")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    a = ap.parse_args()
    spec = load_spec()
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.compare:
        return compare(*a.compare)
    if a.set:
        run_set(a.set, parse_seeds(a.seeds), seconds)
        return 0
    if not a.workload:
        fail("--workload, --set or --compare is required")
    result = measure(build(), spec, a.workload, a.seed, seconds, a.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
