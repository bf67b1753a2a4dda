"""Host-time spans recorded by wrappers around each layer's public functions.

The wrappers are installed on class attributes before any device is built, so
methods a constructor prebinds (``self._send = cache.send_batch``) are wrapped
too.  Nothing in ``src/`` changes.

Each benchmark operation (one launch, one sampled run) opens an *op* span; the
wrapped calls beneath it form a call tree whose nodes aggregate every call with
the same path (name, calls, inclusive seconds, self seconds).  A node's self
time is its inclusive time minus the time of the wrapped calls nested in it.
Everything stays in memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter
from typing import Any


class Node:
    """Aggregated calls sharing one call path inside one op."""

    __slots__ = ("calls", "children", "layer", "name", "self_s", "total_s")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children: dict[str, Node] = {}

    def child(self, name: str, layer: str) -> Node:
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, layer)
        return node

    def walk(self, path: tuple[str, ...] = ()) -> Iterator[tuple[tuple[str, ...], Node]]:
        path = (*path, self.name)
        yield path, self
        for child in self.children.values():
            yield from child.walk(path)


class Tracer:
    """Span recorder for one benchmark process (single-threaded use)."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``[node, child_seconds]`` frames of the calls currently open.
        self._stack: list[list[Any]] = []
        #: ``(op_id, op_name, start, end, root)`` per finished op.
        self.ops: list[tuple[int, str, float, float, Node]] = []
        self._installed: list[tuple[type, str, Any]] = []

    # -- recording -----------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, name: str) -> Iterator[None]:
        """Open the root span of one operation; its wrapped calls nest beneath it."""
        if not self.enabled:
            yield
            return
        root = Node(name, "bench")
        frame = [root, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            root.calls = 1
            root.total_s = end - start
            root.self_s = root.total_s - frame[1]
            self.ops.append((op_id, name, start, end, root))

    def wrap(self, func: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``func`` recording one span per call while the tracer is enabled."""
        stack = self._stack

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return func(*args, **kwargs)
            frame = [stack[-1][0].child(name, layer), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                node = frame[0]
                node.calls += 1
                node.total_s += elapsed
                node.self_s += elapsed - frame[1]
                stack[-1][1] += elapsed

        return traced

    def install(self, targets: list[tuple[type, str, str]]) -> None:
        """Wrap ``cls.method`` for every ``(cls, method, layer)`` target."""
        for cls, method, layer in targets:
            original = cls.__dict__[method]
            self._installed.append((cls, method, original))
            if isinstance(original, staticmethod | classmethod):
                raise TypeError(f"{cls.__name__}.{method} is not a plain method")
            setattr(cls, method, self.wrap(original, f"{cls.__name__}.{method}", layer))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (devices built afterwards run unwrapped)."""
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    # -- reading -------------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per layer over every recorded op (``bench`` = glue)."""
        totals: dict[str, float] = {}
        for *_, root in self.ops:
            for _, node in root.walk():
                totals[node.layer] = totals.get(node.layer, 0.0) + node.self_s
        return totals

    def calls(self, name: str, op_prefix: str = "") -> int:
        """Calls of the wrapped function ``name`` (``Class.method``) in ops named ``op_prefix*``."""
        return sum(
            node.calls
            for _, op_name, _, _, root in self.ops
            if op_name.startswith(op_prefix)
            for _, node in root.walk()
            if node.name == name
        )

    def inclusive_under(self, ancestor: str, names: set[str]) -> float:
        """Inclusive seconds of calls named in ``names`` nested under ``ancestor``."""
        total = 0.0
        for *_, root in self.ops:
            for path, node in root.walk():
                if node.name in names and ancestor in path[:-1]:
                    total += node.total_s
        return total

    def inclusive(self, name: str) -> float:
        """Inclusive seconds of every call named ``name``."""
        return sum(
            node.total_s for *_, root in self.ops for _, node in root.walk() if node.name == name
        )

    def write(self, path: str) -> None:
        """Write every op's span tree as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, name, start, end, root in self.ops:
                handle.write(
                    json.dumps({"kind": "op", "op": op_id, "name": name, "start": start, "end": end})
                    + "\n"
                )
                for node_path, node in root.walk():
                    handle.write(
                        json.dumps(
                            {
                                "kind": "span",
                                "op": op_id,
                                "path": "/".join(node_path),
                                "layer": node.layer,
                                "calls": node.calls,
                                "total_s": node.total_s,
                                "self_s": node.self_s,
                            }
                        )
                        + "\n"
                    )
