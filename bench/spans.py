"""In-memory span recorder that wraps named functions from outside a package.

A span is (name, start, end, parent). Wrappers are installed by rebinding a
name everywhere it is looked up: for a function, every module of the target
package that holds the same object under any attribute name; for a method,
the attribute on its class. Names that no longer exist are reported as
absent instead of failing the run. The recorder is an object the caller
creates and passes around, so an untraced run has no wrapper and no state.
"""

import functools
import json
import sys
import time
from collections import defaultdict

WRAPPED_MARK = "__bench_wrapped__"


class Tracer:
    """Records spans and per-name self time while its wrappers are installed."""

    def __init__(self, package):
        self.package = package
        self.absent = []
        self._patches = []
        self.reset()

    def reset(self):
        """Drop the spans and totals of the previous measured interval."""
        self.spans = []            # [name, start, end, parent index or None]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []           # [span index, start, time covered by children, name]

    def add(self, key, value):
        self.counts[key] += value

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append([index, start, 0.0, name])

    def _exit(self, name):
        end = time.perf_counter()
        index, start, children, _ = self._stack.pop()
        self.spans[index][2] = end
        duration = end - start
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if not self._stack or self._stack[-1][3] != name:
            self.calls[name] += 1   # a span nested in its own layer is one call

    def span(self, name, fn):
        """Run fn() inside a span called name and return its result."""
        self._enter(name)
        try:
            return fn()
        finally:
            self._exit(name)

    def wrap(self, name, fn, hook=None):
        """fn inside a span; hook(tracer, args, result) records counts after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def install(self, specs):
        """Wrap every (name, module, qualified name, hook) spec that resolves.

        Returns the list of specs that did not resolve (also kept in
        ``self.absent``).
        """
        self.absent = []
        for name, module_name, qualname, hook in specs:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(f"{module_name}.{qualname}")
                    continue
                self._patch(owner, attr, original, self.wrap(name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self.wrap(name, original, hook)
            for mod in self._modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self.absent

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def installed_wrappers(self):
        """Qualified names in the package that are currently bound to a wrapper."""
        found = []
        for mod in self._modules():
            for key, value in vars(mod).items():
                if hasattr(value, WRAPPED_MARK):
                    found.append(f"{mod.__name__}.{key}")
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    found.extend(f"{mod.__name__}.{key}.{attr}"
                                 for attr, member in vars(value).items()
                                 if hasattr(member, WRAPPED_MARK))
        return found

    def write_spans(self, path):
        """Write the current spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}))
                fh.write("\n")
