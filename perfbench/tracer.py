"""In-memory span recorder around the public functions of hptcanon.

Nothing under src/ is edited.  `install()` rebinds each function in
TARGETS, in every loaded hptcanon module that holds it, to a wrapper
that records one span per call; `uninstall()` puts the originals back.
A span is (id, name, start_ns, end_ns, parent_id, operation_id,
self_ns).  An operation is one top-level call into the package, so every
span it causes carries the id of that call's span.  Self time is the
span's duration minus the time covered by its child spans.
"""

import functools
import itertools
import json
import sys
import time

from hptcanon import ring


def _gates(args, result):
    return len(args[0])


def _blocks(args, result):
    return len(args[0].blocks)


def _oracle_products(args, result):
    # Flat products brute_force_mn takes: each frontier matrix m costs
    # T*m plus one product per scalar-orbit representative.
    table = args[1]
    reps = table.order // len(table.scalar_ids)
    return sum(result[1][:-1]) * (1 + reps)


# (layer, owner, attribute, work units of one call).  The layer is where
# the work happens, not where the function is defined: evaluate and
# normal_form_matrix live in normalize but are products in ring.
TARGETS = (
    ("ring", "normalize", "evaluate", _gates),
    ("ring", "normalize", "normal_form_matrix", None),
    ("ring", "UMat2", "apply", None),
    ("ring", "UMat2", "scaled_key", None),
    ("ring", "UMat2", "to_json_dict", None),
    ("normalize", "normalize", "parse", _gates),
    ("normalize", "normalize", "normalize", _gates),
    ("normalize", "normalize", "render", _blocks),
    ("normalize", "normalize", "equivalent", None),
    ("normalize", "normalize", "t_count", None),
    ("normalize", "normalize", "invert", _gates),
    ("group", "group", "build_standard_table", None),
    ("rules", "rules", "build_rules", None),
    ("rules", "rules", "parse_fixture", None),
    ("rules", "rules", "check_fixture", None),
    ("stab", "stab", "initial_stab", None),
    ("stab", "stab", "step_block", None),
    ("stab", "stab", "classify", None),
    ("stab", "stab", "verify_stabilizes", None),
    ("stab", "stab", "nonidentity_witness", None),
    ("census", "census", "enumerate_normal_forms", None),
    ("census", "census", "verify_uniqueness", None),
    ("census", "census", "brute_force_mn", _oracle_products),
    ("verify", "verify", "check_counting", None),
    ("verify", "verify", "check_uniqueness", None),
    ("verify", "verify", "check_oracle", None),
    ("verify", "verify", "check_stab_chains", None),
)

# Generator functions: their work happens in next(), not in the call.
_GENERATORS = {"census.enumerate_normal_forms"}
# Functions whose last result is kept for counters read after the run.
_KEEP = {"census.brute_force_mn"}

LAYERS = ("ring", "normalize", "group", "rules", "stab", "census", "verify",
          "cli")


class Tracer:
    def __init__(self, cap=250_000):
        self.cap = cap
        self.spans = []
        self.dropped = 0
        # name -> [calls, inclusive ns, self ns, work units]
        self.stats = {}
        self.layer_of = {}
        self.last = {}
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "hptcanon" or n.startswith("hptcanon.")]
        for layer, owner, attr, unit in TARGETS:
            name = f"{owner}.{attr}"
            self.layer_of[name] = layer
            if owner == "UMat2":
                orig = ring.UMat2.__dict__[attr]
                self._rebind(ring.UMat2, attr, self._wrap(name, orig, unit))
                continue
            orig = getattr(sys.modules["hptcanon." + owner], attr)
            wrap = (self._wrap_generator(name, orig) if name in _GENERATORS
                    else self._wrap(name, orig, unit))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrap)

    def uninstall(self):
        while self._saved:
            obj, key, orig = self._saved.pop()
            setattr(obj, key, orig)

    def _rebind(self, obj, key, wrap):
        self._saved.append((obj, key, getattr(obj, key)))
        setattr(obj, key, wrap)

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0, 0, 0])

    def _close(self, name, sid, start, end, parent, op, own):
        if len(self.spans) < self.cap:
            self.spans.append((sid, name, start, end,
                               -1 if parent is None else parent[1], op, own))
        else:
            self.dropped += 1

    def _wrap(self, name, fn, unit):
        stack, ids, stat = self._stack, self._ids, self._stat(name)
        clock, close = time.perf_counter_ns, self._close
        keep = self.last if name in _KEEP else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            # frame: [ns covered by children, span id, operation id]
            frame = [0, sid, sid if parent is None else parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                if parent is not None:
                    parent[0] += dur
                close(name, sid, start, end, parent, frame[2], own)
            if unit is not None:
                stat[3] += unit(args, result)
            if keep is not None:
                keep[name] = result
            return result

        return traced

    def _wrap_generator(self, name, fn):
        # Only the time spent inside next() is the generator's own; the
        # consumer's work between items belongs to the consumer's span.
        stack, ids, stat = self._stack, self._ids, self._stat(name)
        clock, close = time.perf_counter_ns, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            op = sid if parent is None else parent[2]
            it = fn(*args, **kwargs)
            busy = items = 0
            start = clock()
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    items += 1
                    yield item
            finally:
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy
                stat[3] += items
                if parent is not None:
                    parent[0] += busy
                close(name, sid, start, clock(), parent, op, busy)

        return traced

    def add(self, name, layer, start, end):
        """Record a root span timed by the caller (one cli child)."""
        self.layer_of[name] = layer
        sid = next(self._ids)
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += end - start
        stat[2] += end - start
        self._close(name, sid, start, end, None, sid, end - start)

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def units(self, name):
        return self.stats.get(name, (0, 0, 0, 0))[3]

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0))[1] / 1e9

    def per_call(self, name, scale):
        st = self.stats.get(name)
        return st[1] / st[0] / scale if st and st[0] else 0.0

    def per_unit(self, name, scale):
        st = self.stats.get(name)
        return st[1] / st[3] / scale if st and st[3] else 0.0

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[self.layer_of[name]] += st[2] / 1e9
        return out

    def write(self, path, header):
        """Header line, then one JSON array per span, in closing order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
