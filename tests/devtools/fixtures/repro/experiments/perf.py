"""Known-bad fixture: DET002 flags host timing in experiments/ too."""

import time


def measure():
    start = time.perf_counter()
    return time.perf_counter() - start
