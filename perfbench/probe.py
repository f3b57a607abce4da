"""Measure the speed of the CPU this process runs on, for as long as it runs.

Usage, started by ``run.py`` on the same CPU as the operations it times:

    python3 perfbench/probe.py SAMPLES.txt

Every ``PERIOD_S`` it runs a fixed piece of pure-Python work twice and
appends one line to SAMPLES.txt: the ``time.monotonic()`` at the end and the
CPU seconds the second run took.  The first run only warms the caches the
operation evicted during the sleep; timed cold, the work costs a fixed extra
that hides part of the change in speed.  CPU seconds, not wall seconds, so
that time the scheduler gave to the operation does not count; what remains is
how fast this CPU executes the fixed work at that moment.  On a host shared
with other tenants that changes by a third within seconds, and work
interleaved on the same CPU slows down with the operation.  The work builds,
hashes and sorts small objects, as the program does; both runs take about
3 ms of every 80, so the probe costs the operation about 4%.
"""

import sys
import time

PERIOD_S = 0.08


def fixed_work():
    table = {}
    for i in range(2_500):
        table[(i, i % 11)] = [str(i), i * 3]
    return sorted(table.items(), key=lambda item: item[1][1] % 97)


def main(path):
    with open(path, "a", buffering=1) as out:
        while True:
            fixed_work()
            start = time.thread_time()
            fixed_work()
            cost = time.thread_time() - start
            out.write(f"{time.monotonic():.6f} {cost:.9f}\n")
            time.sleep(PERIOD_S - min(2 * cost, PERIOD_S))


if __name__ == "__main__":
    main(sys.argv[1])
