"""Runs workload commands as child processes and turns what they did into
metrics.

One client, closed loop: each epival command starts only after the
previous one has exited and its output has been checked. A command's wall
time runs from just before the child is started to its exit, so it covers
interpreter start, imports, JSON reading and writing and the report; the
output check runs after that, outside the timed region. Peak RSS and CPU
time come from the child's own rusage (os.wait4 in spawner.py), never from
RUSAGE_CHILDREN, which keeps the maximum over every child so far.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

COMMAND_TIMEOUT_S = 60.0  # a longer command would break the 180 s limit of a run
CLI = "import sys; from epival.cli import main; sys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "traced_cli.py")


@dataclass
class Execution:
    command: str
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    failure: str | None = None
    spans: list = field(default_factory=list)


class Spawner:
    """A small helper process (spawner.py) that starts children for us, so
    their peak RSS is not inflated by this process's own memory."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, env, stdout=os.devnull, stderr=os.devnull):
        """Run argv to completion; returns the reply dict of spawner.py."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "env": env, "stdout": stdout,
                                          "stderr": stderr, "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Runner:
    """Runs and checks the commands of one workload in its fixture directory."""

    def __init__(self, workdir, env, spawner):
        self.workdir = workdir
        self.env = env
        self.spawner = spawner
        self.fingerprints = {}

    def run(self, cmd, traced=False, command_id=0):
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        spans_path = os.path.join(self.workdir, ".spans.json")
        if traced:
            argv = [sys.executable, SHIM, spans_path, str(command_id), *cmd.args]
        else:
            argv = [sys.executable, "-c", CLI, *cmd.args]
        child = self.spawner.run(argv, self.workdir, self.env, out_path, err_path)
        code = child["returncode"]
        ex = Execution(cmd.name, traced, child["wall_s"], child["cpu_s"],
                       child["maxrss_kb"] / 1024.0, code)
        if code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().strip().splitlines()
            ex.failure = f"exit code {code}: {lines[-1] if lines else ''}"
        else:
            ex.failure = self._check(cmd, out_path)
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                ex.spans = json.load(fh)["spans"]
            os.unlink(spans_path)
        return ex

    def _check(self, cmd, out_path):
        """None when the command succeeded, its report and files pass the
        oracle, and its outputs repeat the first run's bytes; else why not."""
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        if not stdout.strip():
            return "no report on stdout"
        digest = hashlib.sha256(stdout)
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
            for name in cmd.writes:
                with open(os.path.join(self.workdir, name), "rb") as fh:
                    digest.update(fh.read())
            cmd.check(report, self.workdir)
        except Exception as err:  # every miss is a failed command, not a crash
            return f"{type(err).__name__}: {err}"
        first = self.fingerprints.setdefault(cmd.name, digest.hexdigest())
        if first != digest.hexdigest():
            return "output differs from an earlier run of the same command"
        return None

    def sequence(self, cmds, traced=False):
        """One pass over the workload; returns its executions."""
        return [self.run(cmd, traced, i) for i, cmd in enumerate(cmds)]


def per_command(executions, key, stat=statistics.median):
    """{command name: stat of `key` over that command's executions}."""
    values = {}
    for ex in executions:
        values.setdefault(ex.command, []).append(getattr(ex, key))
    return {n: stat(v) for n, v in values.items()}


def end_to_end(executions):
    """wall_s is the sum of per-command mean wall times, peak_rss_mb the
    largest per-command median peak RSS. A shared host's speed swings up
    and down for seconds to minutes at a time rather than stalling now and
    then, and over such swings the mean of a command's few executions
    varies less from run to run than their median does."""
    return {
        "wall_s": sum(per_command(executions, "wall_s", statistics.mean).values()),
        "peak_rss_mb": max(per_command(executions, "peak_rss_mb").values()),
    }


def self_times(spans):
    """{function name: (calls, self seconds, calls returning False)}; self
    time is a span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _, rejected) in enumerate(spans):
        calls, self_s, rejects = out.get(name, (0, 0.0, 0))
        out[name] = (calls + 1, self_s + (t1 - t0) - child[i], rejects + int(rejected))
    return out


def under(spans, ancestor):
    """Indices of spans that have a span named `ancestor` above them."""
    inside = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] == ancestor
    return [i for i, v in enumerate(inside) if v]
