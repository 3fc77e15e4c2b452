"""The server process and the protocol client of the load generator."""

import os
import select
import selectors
import signal
import socket
import subprocess
import time


class ServerError(Exception):
    pass


class Server:
    """One shapcq_server --listen 127.0.0.1:0 process."""

    def __init__(self, binary, args, start_timeout=30.0):
        self.process = subprocess.Popen(
            [binary, "--listen", "127.0.0.1:0"] + args,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, bufsize=0)  # unbuffered: select() sees
                                                # every line still unread
        self.stderr = []
        self.port = None
        deadline = time.monotonic() + start_timeout
        while self.port is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stderr], [], [],
                                        max(0.0, remaining))
            if not ready:
                self.stop()
                raise ServerError("server did not start listening")
            line = self.process.stderr.readline().decode()
            if not line:
                self.stop()
                raise ServerError("server exited: " + "".join(self.stderr))
            self.stderr.append(line)
            if "listening on " in line:
                self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self):
        """VmHWM of the server process, in MB."""
        with open("/proc/%d/status" % self.process.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def cpu_seconds(self):
        """CPU time the server's threads have run so far (schedstat, in
        nanoseconds; the connection pool's threads live as long as the
        server)."""
        total = 0
        task_dir = "/proc/%d/task" % self.process.pid
        for task in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, task, "schedstat")) as stat:
                    total += int(stat.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended between listing and reading
        return total / 1e9

    def stop(self):
        """SIGTERM (drain and sync), then wait; SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            _, err = self.process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            _, err = self.process.communicate()
        self.stderr.append(err.decode(errors="replace"))
        return self.process.returncode


class Response:
    """Collects the reply lines of one step as they arrive: per command its
    echo and its reply, where a report's reply runs to "end report <id>"
    or to an "error:" line."""

    def __init__(self, step):
        self.step = step
        self.lines = []
        self.commands_left = len(step.lines)
        self.in_reply = False

    def feed(self, line):
        """Takes one line; returns True once the step's reply is whole."""
        self.lines.append(line)
        if not self.in_reply:
            if line.startswith("> "):
                self.in_reply = True
                return False
            # A reply without its echo: the check flags it.
        elif (self.step.kind == "report" and not line.startswith("error:") and
              line != "end report " + self.step.session):
            return False
        self.in_reply = False
        self.commands_left -= 1
        return self.commands_left == 0


class Record:
    """One step as sent and answered, with client-side timestamps."""

    def __init__(self, step, start, end, lines):
        self.step = step
        self.start = start
        self.end = end
        self.lines = lines


class Connection:
    """One loopback connection speaking the line protocol."""

    def __init__(self, port, timeout=120.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        self.buffer = b""

    def close(self):
        self.sock.close()

    def _receive(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise ServerError("connection closed mid-response")
        self.buffer += data

    def _take_lines(self, response):
        """Feeds buffered whole lines to response; True when it is whole."""
        while True:
            end = self.buffer.find(b"\n")
            if end < 0:
                return False
            line = self.buffer[:end].decode()
            self.buffer = self.buffer[end + 1:]
            if response.feed(line):
                if self.buffer:
                    raise ServerError("unexpected output after a reply")
                return True


def drive(conns, step_lists):
    """Runs each connection's steps as a closed loop (the next step is sent
    once the previous reply is whole), all connections at once from this
    one thread. Returns per-connection Records and the wall time."""
    selector = selectors.DefaultSelector()
    records = [[] for _ in conns]
    pending = {}

    def send_next(index):
        done = len(records[index])
        if done == len(step_lists[index]):
            selector.unregister(conns[index].sock)
            return
        step = step_lists[index][done]
        pending[index] = (Response(step), time.perf_counter())
        conns[index].sock.sendall(step.payload)

    start = time.perf_counter()
    for index, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, index)
        send_next(index)
    try:
        while selector.get_map():
            ready = selector.select(timeout=conns[0].timeout)
            if not ready:
                raise ServerError("no reply within %ss" % conns[0].timeout)
            for key, _ in ready:
                index = key.data
                conn = conns[index]
                conn._receive()
                response, sent = pending[index]
                if conn._take_lines(response):
                    records[index].append(Record(response.step, sent,
                                                 time.perf_counter(),
                                                 response.lines))
                    send_next(index)
    finally:
        selector.close()
    return records, time.perf_counter() - start
