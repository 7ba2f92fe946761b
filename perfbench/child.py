"""One `tau` invocation in a fresh interpreter, timed from the inside.

Usage: python3 child.py RESULT_JSON SPANS_FILE|- -- TAU_ARGS...

Does what `python -m taucalc TAU_ARGS` does, with `src` on PYTHONPATH,
except that stdout is hashed instead of printed.  It writes one JSON
object to RESULT_JSON: the monotonic clock after `import taucalc`, the
import and main() durations, the sampled interpreter speed, the exit code,
and the sha256 and last line of stdout.  With a SPANS_FILE it installs the
tracer first, runs without the speed gauge, and adds the per-layer
summary; with "-" it runs untraced.
"""

import hashlib
import io
import json
import signal
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HashSink(io.TextIOBase):
    """A text stream that keeps only the sha256 and the last line."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._tail = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._hash.update(text.encode("utf-8"))
        self._tail = (self._tail + text)[-200:]
        return len(text)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def last_line(self) -> str:
        lines = self._tail.rstrip("\n").rsplit("\n", 1)
        return lines[-1]


class SpeedGauge:
    """Samples the interpreter's speed while an invocation runs.

    Every INTERVAL seconds a SIGALRM handler times a tiny fixed loop, and
    three more samples are taken before and after.  On a shared host the
    speed of a core swings by up to 2x within seconds; the mean sampled
    speed (loops per second) over the invocation lets the harness state its
    times at a fixed reference speed.  Time spent in the handler is kept in
    `spent` and taken off the wall and CPU times.
    """

    INTERVAL = 0.02
    LOOP = 2000

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = _now()
        acc = 0
        for i in range(self.LOOP):
            acc += (i * i) % 7
        end = _now()
        self.speeds.append(1.0 / (end - start))
        self.spent += _now() - start

    def start(self) -> None:
        for _ in range(3):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(3):
            self.sample()

    @property
    def speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)


def main() -> int:
    result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SPANS_FILE|- -- TAU_ARGS...")

    t_import = _now()
    import taucalc.cli
    t_ready = _now()

    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        entry = tracer.wrap(taucalc.cli.main, "cli.main")
    else:
        entry = taucalc.cli.main

    # the gauge's signals would land inside traced spans, so traced runs,
    # which report no end-to-end figures, go without it
    gauge = SpeedGauge() if tracer is None else None
    sink = HashSink()
    real_stdout = sys.stdout
    sys.stdout = sink
    if gauge:
        gauge.start()
    try:
        t_main = _now()
        spent_before = gauge.spent if gauge else 0.0
        code = entry(argv)
        t_done = _now()
        spent_in_main = (gauge.spent if gauge else 0.0) - spent_before
    finally:
        if gauge:
            gauge.stop()
        sys.stdout = real_stdout
    main_s = t_done - t_main - spent_in_main

    result = {
        "ready": t_ready,
        "import_s": t_ready - t_import,
        "main_s": main_s,
        "speed": gauge.speed if gauge else None,
        "gauge_s": gauge.spent if gauge else 0.0,
        "exit": code,
        "sha256": sink.digest,
        "last_line": sink.last_line,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
