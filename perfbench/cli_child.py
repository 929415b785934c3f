"""Run ``opmatch.cli`` as ``python -m opmatch.cli`` does, and record its peak memory.

    python3 perfbench/cli_child.py PEAK_FILE [opmatch arguments...]

When the command ends, however it ends, this process's peak resident set
(``VmHWM`` in ``/proc/self/status``, in kB) is written to PEAK_FILE.  The
figure belongs to the memory map made at exec, so unlike ``ru_maxrss`` it
does not include the memory of the process that started this one.
"""

import runpy
import sys


def peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    peak_file = sys.argv.pop(1)
    try:
        runpy.run_module("opmatch.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(f"{peak_kb()}\n")


if __name__ == "__main__":
    main()
