"""Clean rewrite: parallelism through the simulated runtime."""
from repro.runtime.tasking import make_tasking_layer


def run(body, env=None):
    layer = make_tasking_layer(env)
    layer.coforall(2, body)
