#!/usr/bin/env python3
"""The paper's code listings, reproduced 1:1 on this library's substrate.

Section II and IV of the paper teach Chapel through seven listings; each
maps onto a mechanism this repository implements.  Running this script
executes all of them.

Run:  python examples/chapel_listings.py
"""

import threading

import numpy as np

from repro.runtime import (
    AtomicLockPool,
    ChapelEnv,
    make_mutex_pool,
    make_tasking_layer,
)
from repro.runtime.tasking import static_block

env = ChapelEnv(num_tasks=4)
layer = make_tasking_layer(env)
print_lock = threading.Lock()


def tprint(*args):
    with print_lock:
        print(*args)


# ----------------------------------------------------------------------
print("Listing 1 — coforall task-parallel construct")
# coforall tid in 0..numTasks-1 { writeln("Hello from Task ", tid); ... }
# ----------------------------------------------------------------------
def hello(tid: int) -> None:
    tprint(f"  Hello from Task {tid}")
    if tid == 0:
        tprint(f"  Extra hello from master: {tid}")


layer.coforall(4, hello)

# ----------------------------------------------------------------------
print("\nListing 3 — forall data-parallel loop / whole-array operation")
# forall elem in myArray { elem += 1; }   |   myArray += 1;
# ----------------------------------------------------------------------
my_array = np.zeros(16)
layer.forall(len(my_array), lambda lo, hi, tid: my_array.__setitem__(
    slice(lo, hi), my_array[lo:hi] + 1))
print(f"  after forall:      {my_array.sum():.0f} (expected 16)")
my_array += 1  # the equivalent whole-array operation
print(f"  after whole-array: {my_array.sum():.0f} (expected 32)")

# ----------------------------------------------------------------------
print("\nListing 5 — c_ptrTo: flat-buffer access to a matrix")
# var myPtr = c_ptrTo(myMatrix); myRowPtr = myPtr + row*cols; ...
# ----------------------------------------------------------------------
rows, cols = 3, 3
my_matrix = np.zeros((rows, cols))
my_ptr = my_matrix.ravel()          # the raw 1-D buffer (a view, like c_ptrTo)
for row in range(rows):
    row_off = row * cols            # pointer arithmetic
    for col in range(cols):
        my_ptr[row_off + col] = 1
print(f"  matrix set through the flat pointer: all ones = "
      f"{bool((my_matrix == 1).all())}")

# ----------------------------------------------------------------------
print("\nListing 6 — acquiring/releasing locks via atomic variables")
# while pool[lockID].testAndSet() { chpl_task_yield(); }  /  clear()
# ----------------------------------------------------------------------
flag = AtomicLockPool(size=1)      # one atomic bool
counter = {"x": 0}


def contender(tid: int) -> None:
    for _ in range(10_000):
        flag.acquire(0)             # while testAndSet(): yield
        try:
            counter["x"] += 1
        finally:
            flag.release(0)         # clear()


layer.coforall(4, contender)
print(f"  40000 locked increments across 4 tasks: counter = {counter['x']}")

# the production version: a hashed pool, as §IV-A builds for the MTTKRP
pool = make_mutex_pool("atomic", size=8, env=env)
with pool.guard_row(1234):
    pass
print(f"  mutex pool acquire/release recorded: "
      f"{pool.counters.lock_acquires} acquire(s)")

# ----------------------------------------------------------------------
print("\nListing 7 — omp for nested in omp parallel (the §IV-B pattern)")
# Each thread owns a private buffer but iterates a designated row slice;
# Chapel needs a coforall + manual bounds, i.e. static_block.
# ----------------------------------------------------------------------
vals = np.arange(20.0).reshape(5, 4)
thd_data = [np.zeros(4) for _ in range(4)]


def worker(tid: int) -> None:
    my_vals = thd_data[tid]                      # private buffer
    lo, hi = static_block(vals.shape[0], 4, tid)  # the manual omp-for bounds
    for i in range(lo, hi):
        my_vals += vals[i] * 2


layer.coforall(4, worker)
reduced = np.zeros(4)
for buf in thd_data:                             # "do reduction on myVals"
    reduced += buf
expected = (vals * 2).sum(axis=0)
print(f"  reduction correct: {bool(np.allclose(reduced, expected))}")

print("\nAll listings executed on the repro.runtime substrate.")
