"""paramjet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The sessions are generated from the seed
and written under ``.bench_work/``; the engine only ever sees that
``.session`` text.  Each workload runs as one client in a closed loop, in a
child process of its own (``bench/worker.py``), for S seconds.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` an untraced and a traced child both run, and the line carries
the per-layer metrics of the traced one and the tracing overhead.  Outputs
are checked after the timed loop (``bench/checks.py``).  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

POOL = 64  # generated sessions per run; the loop wraps round if it runs out
SETUP_PROBES = 8  # set-up samples from separate processes, besides the worker
COMMAND_LIMIT_S = 20.0  # a command past this is a failed operation
RUN_DEADLINE_S = 170.0  # the whole run, checks included
CHECK_RESERVE_S = 25.0  # kept back from the workers for the checks
# Times are reported at a reference host speed: each is scaled by
# CALIB_REF_S over the median reading of worker.calibrate() taken in the
# same window (README, "Host speed").  The constant only sets the scale.
CALIB_REF_S = 0.020

END_TO_END_UNITS = {
    "session_s_p50": "s",
    "command_s_p50": "s",
    "command_s_p90": "s",
    "commands_per_s": "1/s",
    "setup_s": "s",
    "max_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


class RunFailed(Exception):
    """A child that crashed or overran: the run has no measurements."""


def _spawn_worker(work: Path, seconds: float, trace: bool, deadline: float) -> tuple[dict, float]:
    out = work / f"worker-t{int(trace)}.json"
    err = work / f"worker-t{int(trace)}.stderr"
    cmd = [sys.executable, str(HERE / "worker.py"), "run", str(ROOT),
           str(work / "manifest.json"), repr(seconds), str(int(trace)), str(out)]
    timeout = deadline - time.monotonic() - CHECK_RESERVE_S
    with open(err, "wb") as errfh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=errfh)
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunFailed(f"worker (trace={int(trace)}) overran the run deadline") from None
    if code != 0:
        tail = err.read_text(errors="replace")[-2000:]
        raise RunFailed(f"worker (trace={int(trace)}) exited {code}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), spawned


def _probe_setup(session_path: Path, deadline: float) -> tuple[float, float]:
    """Seconds from spawning a fresh process to the point where its first
    command would start (interpreter, ``import paramjet``, read, parse), and
    the host-speed reading the probe took right after."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "probe", str(ROOT), str(session_path)],
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RunFailed(f"set-up probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    ready, speed = proc.stdout.split()
    return float(ready) - spawned, float(speed)


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _generated(report: dict, by_name: dict) -> list[dict]:
    return [r for r in report["sessions"] if not by_name[r["name"]].fixture]


def _host_scale(report: dict) -> float:
    return CALIB_REF_S / statistics.median(report["calib_s"])


def _end_to_end(report: dict, by_name: dict, setup: list[float],
                ok_ratio: float) -> tuple[dict, dict]:
    """The end-to-end metrics as measured (wall time), and the same with
    every time scaled to the reference host speed, which is what is reported."""
    sessions = report["sessions"]
    commands = [c for r in sessions for c in r["command_s"]]
    completed = sum(
        len(r["command_s"]) - (1 if r["timed_out"] or r["error"] else 0) for r in sessions)
    wall = {
        "session_s_p50": statistics.median(r["session_s"] for r in _generated(report, by_name)),
        "command_s_p50": _percentile(commands, 50),
        "command_s_p90": _percentile(commands, 90),
        "commands_per_s": completed / report["loop_s"],
    }
    scale = _host_scale(report)
    scaled = {k: v / scale if k == "commands_per_s" else v * scale for k, v in wall.items()}
    scaled.update({
        "setup_s": statistics.median(setup),
        "max_rss_mb": report["max_rss_mb"],
        "ok_ratio": ok_ratio,
    })
    return wall, scaled


def _per_layer(traced: dict, untraced: dict, by_name: dict) -> dict:
    layers = dict(traced["layers"])
    t = [r["session_s"] for r in _generated(traced, by_name)]
    u = [r["session_s"] for r in _generated(untraced, by_name)]
    n = min(len(t), len(u))  # the same sessions on both sides
    layers["trace.overhead_ratio"] = (statistics.median(t[:n]) * _host_scale(traced)) / (
        statistics.median(u[:n]) * _host_scale(untraced))
    layers["trace.host_calib_s"] = statistics.median(traced["calib_s"])
    total = sum(r["session_s"] for r in traced["sessions"])
    layers["trace.session_s"] = total
    layers["linalg.nullspace.share"] = layers["linalg.nullspace.s"] / total
    layers["field.gcd.share"] = layers["field.gcd.s"] / total
    return layers


def _verify(reports: list[dict], by_name: dict, field_mod) -> tuple[int, int, list[str]]:
    checker = checks.Checker(field_mod)
    attempted = failed = 0
    reasons: list[str] = []
    for report in reports:
        for res in report["sessions"]:
            session = by_name[res["name"]]
            try:
                ops, bad, why = checker.check(session, res)
            except Exception as err:  # an unreadable output fails the session, not the run
                ops = max(1, len(session.answers))
                bad, why = range(ops), [f"{session.name}: {type(err).__name__}: {err}"]
            attempted += ops
            failed += len(bad)
            reasons += why
        repeat = report["repeat"]
        why = checker.check_repeat(by_name[repeat["name"]], repeat)
        attempted += 1
        failed += bool(why)
        reasons += why
    return attempted, failed, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "paramjet" / "cli.py").is_file():
        print(f"benchmark: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import paramjet.field as field_mod

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sessions = gen.GENERATORS[args.workload](args.seed, POOL)
    if args.workload == "ratfun-jet":
        sessions += gen.fixture_sessions(ROOT / "fixtures")
    entries = []
    for s in sessions:
        path = work / f"{s.name}.session"
        path.write_text(s.text, encoding="utf-8")
        checks.write_answers(path, s)
        entries.append({"name": s.name, "path": str(path), "flags": s.flags,
                        "fixture": s.fixture})
    # from here on the expected results come from the side files
    by_name = {e["name"]: checks.read_session(Path(e["path"])) for e in entries}
    manifest = {"dir": str(work), "command_limit_s": COMMAND_LIMIT_S, "sessions": entries}
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup = [wall * CALIB_REF_S / speed for wall, speed in
                 (_probe_setup(Path(entries[0]["path"]), deadline) for _ in range(probes))]
        untraced, spawned = _spawn_worker(work, args.seconds, False, deadline)
        reports = [untraced]
        if untraced["first_command_mono"] is not None:
            setup.append((untraced["first_command_mono"] - spawned) * _host_scale(untraced))
        traced = None
        if args.trace:
            traced, _ = _spawn_worker(work, args.seconds, True, deadline)
            reports.append(traced)
    except (RunFailed, subprocess.TimeoutExpired) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    attempted, failed, reasons = _verify(reports, by_name, field_mod)
    for why in reasons[:20]:
        print(f"check failed: {why}", file=sys.stderr)
    ok_ratio = (attempted - failed) / attempted
    if args.trace:
        values = _per_layer(traced, untraced, by_name)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
    else:
        wall, values = _end_to_end(untraced, by_name, setup, ok_ratio)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print("as measured, before scaling to the reference host speed: " + ", ".join(
            f"{k} {v:.6g}" for k, v in wall.items())
            + f"; host scale {_host_scale(untraced):.4f}", file=sys.stderr)
    commands = sum(len(r["command_s"]) for r in untraced["sessions"])
    print(f"{args.workload} seed {args.seed}: {len(untraced['sessions'])} sessions, "
          f"{commands} commands, {attempted} operations, {failed} failed", file=sys.stderr)

    if args.trace:
        spans = work / "spans.jsonl"
        keep = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        os.replace(spans, keep)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
