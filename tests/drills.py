#!/usr/bin/env python3
"""Multi-process serve/drive drills (`ctest -L drill`).

usage: drills.py DRILL DEEPCSI_CLI WORK_DIR PORT

Generates a 3-station capture and a 1-epoch model in WORK_DIR (emptied
first), then runs real `serve --listen` processes (ingest on PORT, verdicts
on PORT+1) fed by `drive`. DRILL is net_e2e, chaos_soak, kill_restore or
hot_swap. Each station sends more reports than the 31-vote session window
holds, so a drive/serve window mismatch fails the vote parity. A
DEEPCSI_SIMD=avx2* run on a host without AVX2+FMA exits 77 (skipped). Every
process started is killed on every exit path; each step's output lands in
WORK_DIR/<step>.log and is printed at the end.
"""
import ctypes
import hashlib
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

SNAPSHOTS = 40  # reports per station, > the 31-vote session window
HALF = str(3 * SNAPSHOTS // 2)  # first half of the 3-station capture
WAIT_S = 240  # below the ctest TIMEOUT, so a hang is reported, not killed


class DrillError(Exception):
    pass


class Drill:
    def __init__(self, cli, work, port):
        self.cli, self.work, self.port = cli, work, port
        self.procs = {}  # step name -> Popen, in start order

    def path(self, name):
        return os.path.join(self.work, name)

    def log(self, step):
        with open(self.path(step + ".log"), errors="replace") as f:
            return f.read()

    def nonempty(self, name):
        return os.path.isfile(self.path(name)) and os.path.getsize(self.path(name)) > 0

    def run(self, step, *args, env=None, wait=True):
        # PR_SET_PDEATHSIG: a SIGKILLed driver (ctest timeout) takes its
        # children with it.
        with open(self.path(step + ".log"), "w") as log:
            self.procs[step] = subprocess.Popen(
                [self.cli, *args], stdout=log, stderr=subprocess.STDOUT,
                env={**os.environ, **(env or {})},
                preexec_fn=lambda: ctypes.CDLL(None).prctl(1, signal.SIGKILL))
        if wait:
            self.finish(step)

    def finish(self, step):
        rc = self.procs[step].wait(timeout=WAIT_S)
        if rc != 0:
            raise DrillError(f"{step} exited {rc}")

    def poll(self, what, ready, step, tries=150, interval=0.2):
        for _ in range(tries):
            if ready():
                return
            if self.procs[step].poll() is not None:
                raise DrillError(f"{step} exited while waiting for {what}")
            time.sleep(interval)
        raise DrillError(f"timed out waiting for {what}")

    def expect(self, step, line):
        if line not in self.log(step):
            raise DrillError(f"{step} never printed '{line}'")

    def train(self, out, epochs):
        self.run("train_" + out, "train", "--data", self.path("deepcsi_corpus.dcst"),
                 "--out", self.path(out), "--epochs", str(epochs))

    def serve(self, step, *args, env=None):
        ports = step + ".ports"
        self.run(step, "serve", "--model", self.path("model.bin"),
                 "--listen", str(self.port), "--publish", str(self.port + 1),
                 "--port-file", self.path(ports), *args, env=env, wait=False)
        self.poll("the port file", lambda: self.nonempty(ports), step)

    def drive(self, step, *args, env=None, wait=True):
        self.run(step, "drive", "--pcap", self.path("stations.pcap"),
                 "--connect", str(self.port), *args, env=env, wait=wait)

    def parity(self):
        return ("--subscribe", str(self.port + 1), "--model", self.path("model.bin"))


def net_e2e(d):
    """Published verdicts match the offline pipeline bit for bit."""
    if os.environ.get("DEEPCSI_SIMD") == "avx2_int8" and not d.nonempty("model.bin.calib"):
        raise DrillError("train wrote no .calib sidecar for the int8 backend")
    d.serve("serve", "--once", "1")
    d.drive("drive", "--conns", "4", *d.parity())
    d.finish("serve")


def chaos_soak(d):
    """The same parity under a seeded, lossless failpoint storm in both processes."""
    d.serve("serve", "--once", "1", env={"DEEPCSI_FAILPOINTS":
            "queue.push=err(EAGAIN,p=0.1,seed=3);net.recv=err(EAGAIN,p=0.05,seed=4)"})
    d.drive("drive", "--conns", "2", *d.parity(), env={"DEEPCSI_FAILPOINTS":
            "net.send=short(p=0.1,seed=7);net.recv=short(p=0.1,seed=8)"})
    d.finish("serve")


def kill_restore(d):
    """kill -9 mid-capture, restart from the session snapshot: parity holds."""
    snap = d.path("sessions.snap")
    d.serve("serve", "--state-file", snap, "--state-interval-ms", "100")
    d.drive("drive_first_half", "--conns", "1", "--limit", HALF)
    # Two equal hashes 500 ms apart: the first half is classified and on
    # disk, so the kill -9 loses nothing the parity check needs.
    hashes = []

    def stable():
        if d.nonempty("sessions.snap"):
            with open(snap, "rb") as f:
                hashes.append(hashlib.sha256(f.read()).hexdigest())
        return len(hashes) >= 2 and hashes[-1] == hashes[-2]

    d.poll("a stable session snapshot", stable, "serve", tries=100, interval=0.5)
    d.procs["serve"].kill()
    d.procs["serve"].wait()
    d.serve("serve_restored", "--once", "1", "--state-file", snap)
    d.drive("drive_second_half", "--conns", "1", "--skip", HALF, *d.parity())
    d.finish("serve_restored")


def hot_swap(d):
    """--model-watch swaps weights in mid-capture: one swap, no rollback, no drop."""
    d.train("candidate.bin", 2)
    d.serve("serve", "--once", "1", "--model-watch", "200")
    # A raw connection held open across the gap between the two drive
    # halves, so the once-mode server does not end the client wave there.
    held = socket.create_connection(("127.0.0.1", d.port))
    try:
        d.drive("drive_first_half", "--conns", "1", "--limit", HALF)
        # Sidecars first, then the weights by copy + atomic rename: the
        # shape of an external retrain pipeline.
        model, candidate = d.path("model.bin"), d.path("candidate.bin")
        for sidecar in (".meta", ".calib"):
            if os.path.exists(candidate + sidecar):
                shutil.copyfile(candidate + sidecar, model + sidecar)
        shutil.copyfile(candidate, model + ".new")
        os.rename(model + ".new", model)
        d.poll("the hot swap", lambda: "hot-swapped" in d.log("serve"), "serve")
        d.expect("serve", "model hot-swapped (watch) -> epoch 2")
        d.drive("drive_second_half", "--subscribe", str(d.port + 1),
                "--conns", "1", "--skip", HALF, wait=False)
        # Once the sent line is out every report is in flight; dropping the
        # held connection lets the server drain and send its final stats.
        d.poll("the second half's sent line",
               lambda: "drive: sent" in d.log("drive_second_half"), "drive_second_half")
    finally:
        held.close()
    d.finish("drive_second_half")
    d.finish("serve")
    d.expect("drive_second_half", "swaps completed=1 rolled-back=0")
    d.expect("drive_second_half", "drops: oldest=0 rejected=0")


DRILLS = {f.__name__: f for f in (net_e2e, chaos_soak, kill_restore, hot_swap)}


def main():
    if len(sys.argv) != 5 or sys.argv[1] not in DRILLS:
        sys.exit(__doc__)
    name, cli, work, port = sys.argv[1:]
    simd = os.environ.get("DEEPCSI_SIMD", "")
    with open("/proc/cpuinfo") as f:
        flags = next((line for line in f if line.startswith("flags")), "").split()
    if simd.startswith("avx2") and not {"avx2", "fma"} <= set(flags):
        print(f"skipped: DEEPCSI_SIMD={simd} needs AVX2+FMA, which this host lacks")
        return 77
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    d = Drill(os.path.abspath(cli), os.path.abspath(work), int(port))
    verdict = "FAILED"
    try:
        d.run("generate", "generate", "--out", d.work, "--modules", "3", "--positions",
              "1", "--snapshots", str(SNAPSHOTS), "--pcap", d.path("stations.pcap"))
        d.train("model.bin", 1)
        DRILLS[name](d)
        verdict = "passed"
    except DrillError as e:
        verdict = f"FAILED: {e}"
    finally:
        for step, proc in d.procs.items():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            print(f"----- {step}.log\n{d.log(step)}", end="")
        print(f"drill {name} {verdict}")
    return 0 if verdict == "passed" else 1


if __name__ == "__main__":
    sys.exit(main())
