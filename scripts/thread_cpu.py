#!/usr/bin/env python3
"""Per-thread CPU time and context switches of a perfbench run.

    python3 scripts/thread_cpu.py --workload pipelined-hot --seed 1 \
        --seconds 10

Runs one `perfbench/run.py` workload from this checkout (which builds the
serving binaries first, into $CARGO_TARGET_DIR or .bench_build) and,
while it runs, samples /proc/<pid>/task/*/{stat,status} of every
fannr_server and fannr_router process it spawns. When the run ends it
prints, for each serving thread (named by the servers: fannr-loop<i>,
fannr-exec, fannr-pool<i>, fannr-control), its user and system seconds
and its voluntary and involuntary context switches per answer, where
answers = the run's `attempted` count. Each thread's last sample before
its process exited is used, so up to one sampling interval at the end of
a process's life is missed.

Reads /proc only; writes nothing. Linux only.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVING = ("fannr_server", "fannr_router")
CLK_TCK = os.sysconf("SC_CLK_TCK")
IDLE_CPU_S = 0.1  # threads below this much CPU are left out of the table


def read(path):
    try:
        with open(path, "r") as f:
            return f.read()
    except OSError:
        return None


def parse_stat(text):
    """(comm, ppid, utime_ticks, stime_ticks) from a /proc stat line."""
    open_paren = text.index("(")
    close_paren = text.rindex(")")
    comm = text[open_paren + 1:close_paren]
    fields = text[close_paren + 2:].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return comm, int(fields[1]), int(fields[11]), int(fields[12])


def switches(status_text):
    voluntary = involuntary = 0
    for line in status_text.splitlines():
        if line.startswith("voluntary_ctxt_switches:"):
            voluntary = int(line.split()[1])
        elif line.startswith("nonvoluntary_ctxt_switches:"):
            involuntary = int(line.split()[1])
    return voluntary, involuntary


def descendants(root_pid):
    """Pids of every process below `root_pid`, with their comm."""
    children = {}
    comms = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        text = read(f"/proc/{name}/stat")
        if text is None:
            continue
        try:
            comm, ppid, _, _ = parse_stat(text)
        except (ValueError, IndexError):
            continue
        pid = int(name)
        comms[pid] = comm
        children.setdefault(ppid, []).append(pid)
    found = {}
    stack = [root_pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found[child] = comms[child]
            stack.append(child)
    return found


def sample_tasks(pid, into):
    """Updates into[(pid, tid)] with the task's latest counters."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        stat = read(f"/proc/{pid}/task/{tid}/stat")
        status = read(f"/proc/{pid}/task/{tid}/status")
        if stat is None or status is None:
            continue
        try:
            comm, _, utime, stime = parse_stat(stat)
        except (ValueError, IndexError):
            continue
        voluntary, involuntary = switches(status)
        into[(pid, int(tid))] = {
            "thread": comm, "user_s": utime / CLK_TCK,
            "sys_s": stime / CLK_TCK, "voluntary": voluntary,
            "involuntary": involuntary}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--interval", type=float, default=0.1,
                        help="sampling period in seconds")
    parser.add_argument("--json", action="store_true",
                        help="print the table as one JSON object")
    args = parser.parse_args()

    run = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds)],
        stdout=subprocess.PIPE, text=True)
    processes = {}  # pid -> comm of each serving process seen
    tasks = {}
    while run.poll() is None:
        for pid, comm in descendants(run.pid).items():
            if comm in SERVING:
                processes[pid] = comm
        for pid in processes:
            sample_tasks(pid, tasks)
        time.sleep(args.interval)
    out = run.stdout.read()
    if run.returncode != 0:
        print(f"thread_cpu: perfbench exited with {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    answers = max(1, int(result.get("attempted", 0)))

    rows = []
    for (pid, tid), t in sorted(tasks.items()):
        rows.append({"process": f"{processes[pid]}[{pid}]", "tid": tid, **t,
                     "voluntary_per_answer": t["voluntary"] / answers,
                     "involuntary_per_answer": t["involuntary"] / answers})
    total_switches = sum(r["voluntary"] + r["involuntary"] for r in rows)
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "answers": answers,
        "correct": result.get("correct"), "failed": result.get("failed"),
        "cpu_ms_per_query": result["metrics"]["cpu_ms_per_query"]["value"],
        "switches_per_answer": total_switches / answers,
        "threads": rows}
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    print(f"{args.workload} seed {args.seed}: {answers} answers, "
          f"correct={summary['correct']} failed={summary['failed']}, "
          f"cpu_ms_per_query={summary['cpu_ms_per_query']:.5f}, "
          f"{summary['switches_per_answer']:.3f} switches/answer")
    print(f"{'process':<22} {'thread':<16} {'user_s':>8} {'sys_s':>8} "
          f"{'vol/ans':>8} {'invol/ans':>9}")
    # fannbench also starts short-lived servers to time set-up; their
    # threads (and idle main threads) would only pad the table.
    busy = [r for r in rows if r["user_s"] + r["sys_s"] >= IDLE_CPU_S]
    for r in busy:
        print(f"{r['process']:<22} {r['thread']:<16} {r['user_s']:>8.2f} "
              f"{r['sys_s']:>8.2f} {r['voluntary_per_answer']:>8.3f} "
              f"{r['involuntary_per_answer']:>9.3f}")
    if len(busy) < len(rows):
        print(f"({len(rows) - len(busy)} threads under {IDLE_CPU_S} s of "
              "CPU omitted; --json lists them)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
