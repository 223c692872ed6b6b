"""Command line of the benchmark: ``run`` and ``selfcheck``."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .harness import ROOT, load_spec

HISTORY = Path(__file__).resolve().parent / "history.jsonl"
DIAGNOSTICS_PREFIX = "# diagnostics "
#: ``selfcheck`` refuses to judge a run whose calibration kernel spread
#: (p90 - p10) / median, or whose share of CPU time the hypervisor gave
#: to a neighbour, went past these: the host was too disturbed.
MAX_CALIB_SPREAD = 0.5
MAX_STEAL_SHARE = 0.05


def main(argv: list[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "selfcheck"):
        p = sub.add_parser(command)
        p.add_argument("--workload", choices=names,
                       help="one workload (default: all four)")
        p.add_argument("--seed", type=int, default=0,
                       help="draws the traffic: queries and uploads")
        p.add_argument("--seconds", type=float,
                       default=float(spec["run_seconds"]),
                       help="length of the timed phase")
        p.add_argument("--scale", choices=("smoke", "default", "full"),
                       default="default", help="input sizes")
    run = sub.choices["run"]
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer metrics from a traced phase")
    run.add_argument("--traced", dest="trace", action="store_const",
                     const=1, help="same as --trace 1")
    run.add_argument("--record", action="store_true",
                     help=f"append the results to {HISTORY.name}")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if args.command == "selfcheck":
        return _selfcheck(args, workloads, spec)
    if args.workload:
        return _run_here(args)
    results = [_run_child(args, name, args.trace) for name in workloads]
    return 0 if all(r["correct"] for r in results) else 1


def _run_here(args: argparse.Namespace) -> int:
    """Run one workload in this process and print the contract's output."""
    from .runner import run_workload

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    diagnostics = result.pop("diagnostics")
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}"
          f"  scale={args.scale}  trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"{name:<52}{metric['value']:>16.6g} {metric['unit']}")
    print(f"failed_ops_share = {result['failed']} / {result['attempted']}")
    if args.record:
        _record(args, result)
    print(DIAGNOSTICS_PREFIX + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_child(args: argparse.Namespace, workload: str,
               trace: int) -> dict[str, Any]:
    """Run one workload in a process of its own (a clean heap, so one
    workload's memory never shows in the next one's), echo its report,
    return its result with the diagnostics folded back in."""
    command = [sys.executable, "-m", "benchmarks.e2e", "run",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--scale", args.scale,
               "--trace", str(trace)]
    if getattr(args, "record", False):
        command.append("--record")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload}: the run printed no result "
                         f"(exit code {done.returncode})")
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(
        lines[-2][len(DIAGNOSTICS_PREFIX):])
    return result


def _record(args: argparse.Namespace, result: dict[str, Any]) -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, check=False).stdout.strip() or "unknown"
    row = {
        "commit": commit, "time": time.time(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace, "correct": result["correct"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


def _selfcheck(args: argparse.Namespace, workloads: list[str],
               spec: dict[str, Any]) -> int:
    """A/A: the suite twice on the same tree must agree within its own
    bounds, on a host calm enough to judge."""
    sets = [[_run_child(args, name, 0) for name in workloads]
            for _ in range(2)]
    bad = 0
    print(f"\n{'workload':<20}{'metric':<24}{'first':>14}{'second':>14}"
          f"{'rel diff':>10}{'bound':>8}")
    for name, first, second in zip(workloads, *sets):
        for metric in spec["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            diff = abs(b - a) / abs(a)
            over = diff > metric["bound"]
            bad += over
            print(f"{name:<20}{metric['name']:<24}{a:>14.6g}{b:>14.6g}"
                  f"{diff:>10.4f}{metric['bound']:>8.2f}"
                  f"{'  EXCEEDS' if over else ''}")
        for label, result in (("first", first), ("second", second)):
            for key, limit in (("host.calib_spread", MAX_CALIB_SPREAD),
                               ("host.steal_share", MAX_STEAL_SHARE)):
                value = result["diagnostics"][key]
                if value > limit:
                    bad += 1
                    print(f"{name:<20}{key} of the {label} run is "
                          f"{value:.2f} > {limit}: host too disturbed "
                          "to judge")
            if not result["correct"]:
                bad += 1
                print(f"{name:<20}the {label} run gave wrong answers")
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0
