"""Seeded must-release leaks, each next to its clean twin.

Every line whose comment says it expects the rule must be reported;
nothing else in this file may be.
"""


def seeded_exceptional_leak(lock, work):
    lock.acquire()  # expect: must-release (leaks when work() raises)
    work()
    lock.release()


def seeded_exit_leak(path, cond):
    fh = open(path)  # expect: must-release (leaks on the early return)
    if cond:
        return None
    data = fh.read()
    fh.close()
    return data


def clean_finally(lock, work):
    lock.acquire()
    try:
        work()
    finally:
        lock.release()


def clean_with(path):
    with open(path) as fh:
        return fh.read()
