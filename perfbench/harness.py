"""Run hygiene: one private local Ray per run, started quiet and stopped clean.

Every benchmark run is a fresh process that

* kills what an earlier run in this checkout left behind if it died without
  cleaning up, then refuses to start while any other ``raylet`` is alive,
* starts its own local Ray (``num_cpus = nproc``, no dashboard, a bounded
  object store, session files under the run's work directory),
* waits until Ray's helper processes stop burning CPU before each timed
  section,
* shuts Ray down, waits for every process it started to exit, and deletes its
  work directory (indexes included) on the way out.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import time

OBJECT_STORE_BYTES = 256 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<pid>/sockets/<name>, which needs ~70 of them.
_MAX_TEMP_DIR_LEN = 36


def nproc() -> int:
    """What ``nproc`` prints: the usable CPUs, which honours OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return os.cpu_count() or 1


def _cpu_idle_ticks() -> dict[int, int]:
    """Idle + iowait clock ticks per CPU since boot, from /proc/stat."""
    out = {}
    with open("/proc/stat") as f:
        for line in f:
            name, *vals = line.split()
            if name.startswith("cpu") and name != "cpu":
                out[int(name[3:])] = int(vals[3]) + int(vals[4])
    return out


def idlest_cpu(sample_s: float = 0.5) -> int:
    """The allowed CPU with the most idle time over ``sample_s``."""
    allowed = sorted(os.sched_getaffinity(0))
    before = _cpu_idle_ticks()
    time.sleep(sample_s)
    after = _cpu_idle_ticks()
    return max(allowed, key=lambda c: (after.get(c, 0) - before.get(c, 0), -c))


def pin_tree(cpu: int) -> None:
    """Pin every thread of this process and of its live descendants (the
    raylet, Ray's workers and actors) to ``cpu``; processes and threads they
    start later inherit it. Two passes, for threads started while the first
    one ran."""
    for _ in range(2):
        for pid in [os.getpid(), *descendants(os.getpid())]:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {cpu})
                except OSError:
                    pass


def _proc_stat(pid: int) -> tuple[int, int] | None:
    """(ppid, utime + stime in clock ticks) of a live process, else None.
    Zombies count as gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    fields = s[s.rindex(")") + 2 :].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), int(fields[11]) + int(fields[12])


def _all_pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def descendants(root: int) -> list[int]:
    """Live descendant pids of ``root`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        st = _proc_stat(pid)
        if st is not None:
            children.setdefault(st[0], []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _comm(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/comm") as f:
            return f.read().strip()
    except OSError:
        return ""


def stray_raylets() -> list[int]:
    return [p for p in _all_pids() if _comm(p) == "raylet"]


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def kill_leftovers(tag: str) -> list[int]:
    """SIGKILL processes whose command line names ``tag`` (this checkout's
    Ray session directory): what a run that died without cleaning up left."""
    me = os.getpid()
    pids = [p for p in _all_pids() if p != me and tag in _cmdline(p)]
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    return pids


def vm_hwm_mb(pids: list[int]) -> float:
    """Sum of peak resident set sizes (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def read_bytes() -> int:
    """Bytes this process has read through read(2)-family calls (rchar)."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


class RunTimeout(Exception):
    """The run exceeded its wall-clock cap."""


class RayRun:
    """Context manager owning one run's local Ray cluster and work directory."""

    def __init__(self, work_dir: str, cap_s: float):
        self.work_dir = work_dir
        self.cap_s = cap_s
        self.boot_s = 0.0
        self.settle_s = 0.0
        self.settle_total = 0.0
        self._temp_dir: str | None = None

    def __enter__(self) -> "RayRun":
        own = os.path.join(os.path.abspath(self.work_dir), "ray")
        if kill_leftovers(own + "/"):
            time.sleep(1)
        deadline = time.monotonic() + 20
        while stray_raylets():
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"a raylet from an earlier run is still alive (pids {stray_raylets()}); "
                    "stop it (`ray stop --force`) before benchmarking"
                )
            time.sleep(0.5)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)

        def on_alarm(_sig, _frame):
            raise RunTimeout(f"run exceeded its {self.cap_s:.0f} s cap")

        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(int(self.cap_s))

        import ray

        if len(own) <= _MAX_TEMP_DIR_LEN:
            self._temp_dir = own
        else:  # checkout path too long for Ray's socket paths
            self._temp_dir = tempfile.mkdtemp(prefix="pb-", dir="/tmp")
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=nproc(),
            include_dashboard=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=self._temp_dir,
            log_to_driver=False,
            configure_logging=False,
            # keep idle workers: reaping them mid-run makes whether a build
            # lands on a warm or a fresh worker a matter of timing
            _system_config={"kill_idle_workers_interval_ms": 0},
        )
        self.boot_s = time.perf_counter() - t0
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        return self

    def settle(self, quiet_share: float = 0.10, window_s: float = 0.2, max_s: float = 10.0) -> None:
        """Wait until Ray has every CPU free again and all of this process's
        descendants together use less than ``quiet_share`` of one CPU over a
        ``window_s`` window (at most ``max_s`` for each)."""
        import gc

        import ray

        hz = os.sysconf("SC_CLK_TCK")
        t0 = time.monotonic()
        # a finished Dataset's actor pool holds its CPU until the benchmark
        # process drops the Dataset, which reference cycles delay to the next
        # collection; on one CPU the next job would wait for it
        gc.collect()
        total = ray.cluster_resources().get("CPU", 0)
        while ray.available_resources().get("CPU", 0) < total and time.monotonic() - t0 < max_s:
            time.sleep(0.05)
        t0_quiet = time.monotonic()

        def ticks() -> int:
            return sum((_proc_stat(p) or (0, 0))[1] for p in descendants(os.getpid()))

        prev = ticks()
        while time.monotonic() - t0_quiet < max_s:
            time.sleep(window_s)
            cur = ticks()
            if (cur - prev) / hz / window_s < quiet_share:
                break
            prev = cur
        self.settle_s = time.monotonic() - t0
        self.settle_total += self.settle_s

    def rss_peak_mb(self) -> float:
        return vm_hwm_mb([os.getpid(), *descendants(os.getpid())])

    @staticmethod
    def _wait_descendants(timeout_s: float) -> bool:
        """Reap exited children until no descendant is left; False on timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                while os.waitpid(-1, os.WNOHANG)[0] > 0:
                    pass
            except ChildProcessError:
                pass
            if not descendants(os.getpid()):
                return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.1)

    def __exit__(self, *exc) -> None:
        signal.alarm(0)
        import ray

        try:
            ray.shutdown()
        finally:
            if not self._wait_descendants(15):
                for pid in descendants(os.getpid()):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self._wait_descendants(5)
            shutil.rmtree(self.work_dir, ignore_errors=True)
            if self._temp_dir and not self._temp_dir.startswith(os.path.abspath(self.work_dir)):
                shutil.rmtree(self._temp_dir, ignore_errors=True)
