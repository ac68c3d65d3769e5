"""Reference work for calibrating timings, and the float matrix product.

Imports nothing but `time`, so a fresh interpreter can run it before
importing hptcanon without changing what that import costs.
"""

import time

_R = 2 ** -0.5
OMEGA = complex(_R, _R)  # e^{i pi/4}
FLOAT_GATES = {"H": (_R, _R, _R, -_R), "P": (1, 0, 0, 1j),
               "T": (1, 0, 0, OMEGA)}

# This machine's speed drifts by 15-25% over tens of seconds.  A time
# divided by the reference measured next to it drifts far less; times
# reported in seconds are scaled to a machine where it takes REF_SECONDS.
REF_SECONDS = 0.025


def _lcg(n, seed=12345):
    out = []
    for _ in range(n):
        seed = (1103515245 * seed + 12345) % 2 ** 31
        out.append(seed >> 16)
    return out


_WORD = "".join("HPT"[v % 3] for v in _lcg(4000))
_STEP = {(s, ch): (7 * s + ord(ch)) % 192 for s in range(192) for ch in "HPT"}
_KEYS = [tuple(v % 100 - 50 for v in _lcg(17, seed)) for seed in range(3000)]


def float_matrix(circuit):
    """Gate matrices multiplied in string order, in complex floats."""
    a, b, c, d = 1, 0, 0, 1
    for ch in circuit:
        e, f, g, h = FLOAT_GATES[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def reference():
    """Seconds for fixed pure-Python work of the kinds the workloads do:
    integer arithmetic, a dict walk over a word, complex 2x2 products,
    and building and probing a dict of 17-tuples (like flat matrix
    keys).  It never calls hptcanon."""
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    state, marks = 0, []
    for ch in _WORD * 2:
        state = _STEP[state, ch]
        if ch == "T":
            marks.append(state)
    ",".join(map(str, marks))
    float_matrix(_WORD)
    seen = {}
    for shift in (1, 2):
        for i, key in enumerate(_KEYS):
            seen[tuple(v + shift for v in key)] = i
    sum(key in seen for key in _KEYS)
    return time.perf_counter() - t0
