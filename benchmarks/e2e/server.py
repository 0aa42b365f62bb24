"""The server under test, in its own process.

Run as ``python -m benchmarks.e2e.server --rows N [--data-dir DIR]`` this
module is the *child*: it loads RST, starts a ``QueryServer`` with the
shipped ``ServerConfig`` defaults on an ephemeral port, prints the port
and serves until told to stop.  Imported, it gives the benchmark
:class:`ServerProcess`, which spawns that child and guarantees it is
gone again on every exit path.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading

from benchmarks.e2e import ROOT

#: Durability of the ``mixed_rw`` primary.  ``flush`` survives the
#: SIGKILL the traced run delivers; ``fsync`` would time the sandbox's
#: shared disk, not this program.  256 records per checkpoint gives
#: several auto-checkpoints inside one timed phase.
SYNC_MODE = "flush"
CHECKPOINT_EVERY_RECORDS = 256


def durability_config(data_dir: str):
    from repro.storage.wal import DurabilityConfig

    return DurabilityConfig(
        data_dir=data_dir,
        sync=SYNC_MODE,
        checkpoint_every_records=CHECKPOINT_EVERY_RECORDS,
    )


def build_database(rows: int, data_dir: str | None = None):
    """RST at SF (1,1,1) x ``rows`` with fresh statistics.

    Used by the child for the served database and by the traced run's
    in-process pass, so both time the same data.
    """
    from repro import Database
    from repro.datagen import RstConfig, generate_rst

    db = Database(durability=durability_config(data_dir) if data_dir else None)
    for table in generate_rst(1, 1, 1, RstConfig(rows_per_sf=rows)).values():
        db.register(table)
    db.analyze()
    return db


def _exit_when_parent_goes(stop) -> None:
    """The parent holds our stdin open; EOF means it died — follow it."""
    sys.stdin.buffer.read()
    stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.server")
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--data-dir", default=None)
    args = parser.parse_args(argv)

    from repro.service.server import QueryServer, ServerConfig

    server = QueryServer(build_database(args.rows, args.data_dir), ServerConfig(port=0))

    def stop(*_):
        os._exit(0)  # nothing to save: the benchmark owns the data dir

    signal.signal(signal.SIGTERM, stop)
    threading.Thread(target=_exit_when_parent_goes, args=(stop,), daemon=True).start()
    print(server.address[1], flush=True)
    server.serve_forever()
    return 0


class ServerProcess:
    """A spawned server child: URL, peak RSS, stderr, and a sure death."""

    def __init__(self, rows: int, work_dir: str, data_dir: str | None = None):
        self.data_dir = data_dir
        command = [sys.executable, "-m", "benchmarks.e2e.server", "--rows", str(rows)]
        if data_dir:
            command += ["--data-dir", data_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env["PYTHONHASHSEED"] = "0"
        self._stderr_path = os.path.join(work_dir, f"server-{id(self):x}.stderr")
        self._stderr = open(self._stderr_path, "wb")
        self._proc = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        line = self._proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise RuntimeError(f"server child did not start:\n{self.stderr_text()}")
        self.url = f"http://127.0.0.1:{int(line)}"

    @property
    def pid(self) -> int:
        return self._proc.pid

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child: its peak resident set so far."""
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stderr_text(self) -> str:
        with open(self._stderr_path, "rb") as handle:
            return handle.read().decode("utf-8", "replace")

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the child, wait until it has ended, close our pipes."""
        if self._proc.poll() is None:
            self._proc.send_signal(sig)
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout, self._stderr):
            pipe.close()

    def kill(self) -> None:
        """SIGKILL: the crash the durability check recovers from."""
        self.stop(signal.SIGKILL)


if __name__ == "__main__":
    sys.exit(main())
