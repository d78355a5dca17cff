"""Child process of the benchmark: runs one workload's sessions back to back.

One client, closed loop: each session starts when the previous one has
finished.  Every session goes through ``paramjet.cli.main(["run", ...])``,
the same path as the ``paramjet run`` command, and its certificates are
written to a JSONL file for the parent to check.  A hook on
``cli.parse_session`` replaces the parsed command list by one that stamps
the clock as ``run_session`` reaches each command, which gives per-command
wall times without touching the engine.  The same stamps re-arm a
per-command time limit.

Usage (from ``bench/run.py``):
    worker.py run ROOT MANIFEST SECONDS TRACE OUT
    worker.py probe ROOT SESSION_FILE
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction


class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException so the engine cannot absorb it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def calibrate() -> float:
    """Seconds for a fixed piece of exact arithmetic that does not touch the
    engine: a Gauss-Jordan elimination over Q and sparse polynomial products
    in dicts, the two shapes of work the engine does.  A host shared with
    other tenants changes speed by 20-30 % over tens of seconds; the parent
    divides that drift out of the run's times with the median of these
    readings.  The collector is off while it runs, because a collection
    would make the reading depend on the size of the engine's heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _calibration_kernel()
    finally:
        if collecting:
            gc.enable()


def _calibration_kernel() -> float:
    t0 = time.perf_counter()
    n = 12
    m = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    poly = {(i, j): Fraction(i - j, 1 + i + j) for i in range(5) for j in range(5)}
    acc = dict(poly)
    for _ in range(2):
        out: dict = {}
        for (a1, b1), c1 in poly.items():
            for (a2, b2), c2 in acc.items():
                e = (a1 + a2, b1 + b2)
                out[e] = out.get(e, 0) + c1 * c2
        acc = out
    return time.perf_counter() - t0


def import_engine(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paramjet", "cli.py")):
        raise SystemExit(f"benchmark: no engine sources under {src}")
    sys.path.insert(0, src)
    import paramjet.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("benchmark: paramjet was not imported from the checkout")
    return cli


class _TimedCommands(list):
    """The parsed command list; iterating it stamps each command's start,
    and the end of the last, and re-arms the command time limit."""

    limit_s = 0.0

    def __iter__(self):
        self.marks = marks = []
        for item in list.__iter__(self):
            marks.append(time.perf_counter())
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            yield item
        marks.append(time.perf_counter())


def _hook_parse(cli, limit_s: float, on_parsed):
    parse = cli.parse_session

    def parse_and_time(text):
        session = parse(text)
        commands = _TimedCommands(session.commands)
        commands.limit_s = limit_s
        session.commands = commands
        on_parsed(commands)
        return session

    cli.parse_session = parse_and_time


def _run_one(cli, entry: dict, out_path: str, limit_s: float, state: dict) -> dict:
    argv = ["run", entry["path"], "--out", out_path, "--quiet", *entry["flags"]]
    state["commands"] = None
    error = None
    timed_out = False
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except CommandTimeout:
        code, timed_out = None, True
    except Exception as err:  # an engine crash is a failed operation, not a harness crash
        code, error = None, f"{type(err).__name__}: {err}"
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    commands = state["commands"]
    marks = list(getattr(commands, "marks", None) or [])
    if marks and (timed_out or error):
        marks.append(t1)  # the command that was running ends with the session
    return {
        "name": entry["name"],
        "session_s": t1 - t0,
        "command_s": [b - a for a, b in zip(marks, marks[1:])],
        "first_command": marks[0] if marks else None,
        "exit": code,
        "timed_out": timed_out,
        "error": error,
        "out": out_path,
    }


def run(root: str, manifest_path: str, seconds: float, trace: bool, out: str) -> None:
    cli = import_engine(root)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    limit_s = float(manifest["command_limit_s"])
    signal.signal(signal.SIGALRM, _on_alarm)
    state: dict = {}

    tracer = None
    if trace:
        from spans import Tracer
        from paramjet.errors import ParamjetError

        tracer = Tracer()
        tracer.install(ParamjetError)
    _hook_parse(cli, limit_s, lambda cmds: state.__setitem__("commands", cmds))

    pool = manifest["sessions"]
    fixed = [e for e in pool if e.get("fixture")]
    generated = [e for e in pool if not e.get("fixture")]
    order = [generated[0], *fixed]
    results = []
    calib_s: list[float] = []
    first_command_mono = None
    loop_start = time.perf_counter()
    i = 0
    while True:
        if i < len(order):
            entry = order[i]
        else:
            entry = generated[(i - len(fixed)) % len(generated)]
            if time.perf_counter() - loop_start >= seconds:
                break
        out_path = os.path.join(manifest["dir"], f"{i:04d}.{entry['name']}.jsonl")
        if tracer is not None:
            tracer.session_id = i
            tracer.enabled = True
        res = _run_one(cli, entry, out_path, limit_s, state)
        if tracer is not None:
            tracer.enabled = False
        if first_command_mono is None and res["first_command"] is not None:
            # perf_counter and monotonic share CLOCK_MONOTONIC on Linux; the
            # difference carries the stamp over to the parent's clock
            first_command_mono = time.monotonic() - (time.perf_counter() - res["first_command"])
        results.append(res)
        calib_s += (calibrate(), calibrate())
        i += 1
    loop_s = time.perf_counter() - loop_start - sum(calib_s)
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed repeat of the first generated session: certificate bytes must match
    repeat_path = os.path.join(manifest["dir"], "repeat.jsonl")
    repeat = _run_one(cli, order[0], repeat_path, limit_s, state)

    report = {
        "loop_s": loop_s,
        "max_rss_mb": max_rss_mb,
        "first_command_mono": first_command_mono,
        "calib_s": calib_s,
        "sessions": results,
        "repeat": repeat,
    }
    if tracer is not None:
        report["layers"] = tracer.aggregate()
        tracer.write(os.path.join(manifest["dir"], "spans.jsonl"))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def probe(root: str, session_path: str) -> None:
    """Set-up only: import the engine and parse one session, then print the
    monotonic time at which its first command would start, and a host-speed
    reading taken right after."""
    cli = import_engine(root)
    with open(session_path, encoding="utf-8") as fh:
        text = fh.read()
    cli.parse_session(text)
    ready = time.monotonic()
    speed = sorted(calibrate() for _ in range(3))[1]
    print(repr(ready), repr(speed))


if __name__ == "__main__":
    if sys.argv[1] == "run":
        _, _, root, manifest, seconds, trace, out = sys.argv
        run(root, manifest, float(seconds), trace == "1", out)
    elif sys.argv[1] == "probe":
        probe(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
