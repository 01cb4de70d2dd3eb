"""serve-replay: a closed loop of clients against the real `capsim serve`
daemon over its unix socket.

Each connection sends one submit, waits for that job's `result`, then
sends the next request of the shared sequence, as `capsim client` does.  The
client-side event timestamps (submit, ack, first cell, result) give the
request latency and its split into admission, queue wait and execution.
"""

import json
import os
import selectors
import signal
import socket
import subprocess
import time

from benchlib import submit_line


# No reply within this many seconds ends the request (and the run) with
# an error rather than a hang.
IO_TIMEOUT_S = 60.0


class DaemonError(RuntimeError):
    pass


def _connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(IO_TIMEOUT_S)
    sock.connect(path)
    return sock


class Daemon:
    """One `capsim serve --socket` process.  The socket path is relative
    to the working directory, which keeps it under the sockaddr_un limit
    however deep the checkout sits."""

    def __init__(self, launcher, capsim, sock_path, spill, jobs, cache=None,
                 log=None, cpus=None):
        self.launcher = launcher
        self.cpus = cpus
        self.argv = [capsim, "serve", "--socket", sock_path, "--spill", spill,
                     "--jobs", str(jobs)]
        if cache is not None:
            self.argv += ["--cache", str(cache)]
        self.sock_path = sock_path
        self.log = log
        self.proc = None

    def start(self, timeout=60.0):
        """Spawn through perfbench_launch and wait until the socket
        accepts; returns the seconds from the program's start (the
        launcher's clock read just before it execs capsim, so this
        process's fork is left out) to ready: exec and loading, suite,
        models, pool, the spill re-index when the spill file exists, and
        listen."""
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        read_end, write_end = os.pipe()
        own = os.sched_getaffinity(0)
        try:
            # The child inherits the CPUs this thread may run on.
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)
            self.proc = subprocess.Popen(
                [self.launcher, str(write_end)] + self.argv,
                pass_fds=(write_end,), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=self.log or subprocess.DEVNULL)
        finally:
            os.sched_setaffinity(0, own)
            os.close(write_end)
        with os.fdopen(read_end, "rb") as stamp:
            line = stamp.read()
        if not line.strip().isdigit():
            self.kill()
            raise DaemonError("perfbench_launch gave no start time")
        t0 = int(line) / 1e9
        while True:
            try:
                _connect(self.sock_path).close()
                return time.monotonic() - t0
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise DaemonError("capsim serve exited with %d before its "
                                  "socket came up" % self.proc.returncode)
            if time.monotonic() - t0 > timeout:
                self.kill()
                raise DaemonError("capsim serve socket not ready")
            time.sleep(0.0001)

    def request(self, op):
        """One non-job op on a fresh connection; returns its reply."""
        with _connect(self.sock_path) as sock:
            sock.sendall((json.dumps({"op": op}) + "\n").encode())
            line = sock.makefile("rb").readline()
        if not line:
            raise DaemonError("no reply to %s" % op)
        return json.loads(line)

    def peak_rss_mb(self):
        """High-water RSS of the daemon so far (VmHWM), MB.  The reaped
        child's ru_maxrss would not do: it keeps the pre-exec high-water
        mark of this (larger) Python process."""
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM for the daemon")

    def stop(self, timeout=60.0):
        """Stop with SIGTERM, reap the process, and return the CPU
        seconds of all its threads over its whole life.

        SIGTERM is the daemon's clean stop (drain, close the sessions,
        unlink the socket).  The shutdown op is not used: serveSocket's
        accept loop can shut the session sockets down before the op's
        own session has sent its `bye`, and a shutdown sent right after
        start-up lost its reply in 12 of 150 tries (the daemon still
        exits 0).  Call this only after the daemon has answered a
        request: it installs its SIGTERM handler after it starts
        listening, so a signal sent as soon as the socket accepts can
        find the default action still in place."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.monotonic() > deadline:
                    raise DaemonError("capsim serve did not exit")
                time.sleep(0.001)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise DaemonError("capsim serve exited with %d"
                              % self.proc.returncode)
        return usage.ru_utime + usage.ru_stime

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Sample:
    """One request as the client saw it (monotonic ns timestamps).  The
    terminal line is kept raw and decoded after the timed region."""

    __slots__ = ("req", "job", "client", "submit", "ack", "cell", "result",
                 "raw", "status", "output")

    def __init__(self, req, job, client):
        self.req, self.job, self.client = req, job, client
        self.submit = self.ack = self.cell = self.result = self.raw = None
        self.status, self.output = "error", None

    def decode(self):
        """Status and output from the terminal line: `result` carries
        them; `overloaded` and `error` are the status themselves."""
        if self.raw is None:
            return
        try:
            event = json.loads(self.raw)
        except ValueError:
            self.status = "undecodable line"
            return
        kind = event.get("event")
        if kind == "result":
            self.status = event.get("status", "error")
            self.output = event.get("output")
        else:
            self.status = kind if kind in ("overloaded", "error") else (
                "unexpected event %r" % kind)

    def ok(self):
        return self.status == "ok"

    def latency_ms(self):
        return (self.result - self.submit) / 1e6


# Every event line starts with its "event" member (docs/SERVER.md), so
# the clients tell the per-job events apart without decoding them.
_ACK = b'{"event":"ack"'
_CELL = b'{"event":"cell"'


class _Client:
    """One closed-loop connection: its socket, unread bytes, and the
    request it waits on."""

    def __init__(self, index, sock):
        self.index, self.sock = index, sock
        self.pending = bytearray()
        self.sample = None


def replay(sock_path, jobs, sequence, clients):
    """Replay @p sequence (indices into @p jobs) over @p clients
    closed-loop connections; returns (samples in sequence order, wall
    seconds, errors).

    One thread drives every connection through a selector: a connection
    sends its next request of the shared sequence only once its previous
    one has ended.  One thread rather than one per connection keeps the
    benchmark's own scheduling (the interpreter lock, thread switches)
    out of the daemon's way on a small host."""
    lines = [(submit_line(job) + "\n").encode() for job in jobs]
    samples = [None] * len(sequence)
    errors = []
    next_slot = 0
    selector = selectors.DefaultSelector()

    def submit(client):
        nonlocal next_slot
        if next_slot >= len(sequence):
            return False
        sample = Sample(next_slot, sequence[next_slot], client.index)
        samples[next_slot] = sample
        next_slot += 1
        client.sample = sample
        sample.submit = time.monotonic_ns()
        client.sock.sendall(lines[sample.job])
        return True

    def close(client):
        selector.unregister(client.sock)
        client.sock.close()

    t0 = time.monotonic()
    for index in range(clients):
        try:
            client = _Client(index, _connect(sock_path))
        except OSError as exc:
            errors.append("client %d: %s" % (index, exc))
            continue
        selector.register(client.sock, selectors.EVENT_READ, client)
        if not submit(client):
            close(client)
    while selector.get_map():
        ready = selector.select(timeout=IO_TIMEOUT_S)
        if not ready:
            errors.append("no reply within %g s" % IO_TIMEOUT_S)
            for key in list(selector.get_map().values()):
                close(key.data)
            break
        for key, _ in ready:
            client = key.data
            try:
                data = client.sock.recv(1 << 16)
            except OSError as exc:
                errors.append("client %d: %s" % (client.index, exc))
                close(client)
                continue
            now = time.monotonic_ns()
            if not data:
                errors.append("client %d: connection closed" % client.index)
                close(client)
                continue
            client.pending += data
            while client.sample is not None:
                end = client.pending.find(b"\n")
                if end < 0:
                    break
                line = bytes(client.pending[:end + 1])
                del client.pending[:end + 1]
                sample = client.sample
                if line.startswith(_CELL):
                    if sample.cell is None:
                        sample.cell = now
                elif line.startswith(_ACK):
                    sample.ack = now
                else:
                    # result, overloaded or error: the request is over.
                    sample.result = now
                    sample.raw = line
                    client.sample = None
                    if not submit(client):
                        close(client)
    wall = time.monotonic() - t0
    selector.close()
    for sample in samples:
        if sample is not None:
            sample.decode()
    return samples, wall, errors


def chrome_events(samples, epoch_ns, pid=3):
    """The client-side request spans (Chrome trace_event, as
    `--host-profile` writes): one request span per sample with its
    admission / queue-wait / execution children, sharing the request id.
    """
    events = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
               "args": {"name": "perfbench serve clients"}}]

    def span(name, start, end, sample, parent):
        events.append({"ph": "X", "pid": pid, "tid": sample.client,
                       "name": name, "ts": (start - epoch_ns) / 1e3,
                       "dur": (end - start) / 1e3,
                       "args": {"req": sample.req, "job": sample.job,
                                "parent": parent}})

    for s in samples:
        if s is None or s.result is None:
            continue
        span("serve.request", s.submit, s.result, s, None)
        if s.ack is not None:
            span("serve.admit", s.submit, s.ack, s, "serve.request")
            if s.cell is not None:
                span("serve.queue_wait", s.ack, s.cell, s, "serve.request")
                span("serve.exec", s.cell, s.result, s, "serve.request")
    return events
