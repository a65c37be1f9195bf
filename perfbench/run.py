"""The repository benchmark: one seeded closed-loop workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload point-large --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown of a traced run (see ``perfbench/README.md``).  Detail lines
(run envelope, every metric with its unit and sample count) come first;
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit status is 0 when every output and durability check passed, 1
when one failed (the result line then says ``"correct": false``) and 2
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import platform
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (perfbench/test_perfbench.py)")
    return parser.parse_args(argv)


def envelope(run) -> dict:
    """What a reader needs to compare this run with another."""
    from repro.obs.audit import AuditLog
    from repro.server.wal import CommitLog
    def command_output(argv: list[str]) -> str:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, env=env, timeout=30)
        except OSError:
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace),
        "git_sha": command_output(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "cryptography": importlib.util.find_spec("cryptography") is not None,
        "state_fs": command_output(["stat", "-f", "-c", "%T",
                                    run.state_dir]),
        "flush_policy": {
            "wal_fsync": "per append",
            "wal_group_commit": default(CommitLog.__init__, "group_commit"),
            "audit_sync": default(AuditLog.__init__, "sync"),
            "sqlite_synchronous": "FULL",
        },
        "scale": run.scale.__dict__,
        "commands": run.commands,
    }


def _metric_line(name: str, value: float, unit: str, samples=None) -> str:
    count = "" if samples is None else f"  (n={samples})"
    return f"{name:<40} {value:>14.6g} {unit}{count}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import report

    scale = workloads.TINY if args.tiny else workloads.FULL
    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds,
                        bool(args.trace), scale)
    correct, error = True, None
    try:
        outcome = workloads.RUNNERS[args.workload](run)
    except workloads.CheckFailed as exc:
        correct, error, outcome = False, str(exc), None
    finally:
        run.speed.close()
    print("# envelope " + json.dumps(envelope(run), sort_keys=True))
    if not correct:
        print(f"# CHECK FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    failed = sum(c.failed for c in outcome.callers)
    attempted = sum(len(c.results) for c in outcome.callers) + failed
    gated, printed, samples = report.end_to_end(outcome, scale.count_prefix)
    for name, (value, raw, unit) in gated.items():
        print(_metric_line(name, value, unit, samples.get(name))
              + ("" if raw == value else f"  raw={raw:.6g}"))
    for name, (value, unit, count) in printed.items():
        print(_metric_line(name, value, unit, count))
    speed = run.speed
    print(f"# host-speed factor: median {speed.median_factor():.4f} over "
          f"{len(speed.probes)} probes")
    for name, value in outcome.extra.items():
        print(f"# {name} {value}")
    metrics = {name: (value, unit) for name, (value, _raw, unit)
               in gated.items()}
    if args.trace:
        outcome.tracing.recorder.dump(
            os.path.join(run.state_dir, "client.spans"))
        metrics = report.layers(outcome)
        for name, (value, unit) in metrics.items():
            print(_metric_line(name, value, unit))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
