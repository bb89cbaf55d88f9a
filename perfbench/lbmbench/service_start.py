"""Child process behind the service workload's ``setup_s``: one cold start.

Usage: ``python3 service_start.py <library src dir> <workdir>``.  Prints the
CPU seconds the process spent from before its first library import until
``SimulationService.start`` returned, as the service operator pays it.
"""

import time

START = time.process_time()

import asyncio  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, workdir = sys.argv[1], sys.argv[2]
    sys.path[:0] = [src, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    from lbmbench.service import build_service

    async def start() -> float:
        async with build_service(workdir):
            return time.process_time() - START

    print(asyncio.run(start()))


if __name__ == "__main__":
    main()
