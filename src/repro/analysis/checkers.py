"""Built-in ``repro-lint`` checkers RPL001–RPL007 (codes are never reused,
so a retired rule leaves a gap in the numbering).

Each checker pins one of the project's runtime invariants (see
``docs/linting.md`` for the catalogue with rationale).  Checkers are
heuristic by design: they match the idioms this codebase actually uses,
and the ``# repro: allow[RPL0xx]`` pragma is the escape hatch for the
rare justified exception.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, FileContext, register

__all__ = [
    "DataPlanePickleBan",
    "ResourceLifecycle",
    "TagDiscipline",
    "SleepBan",
    "FaultPointCoverage",
    "LockDiscipline",
]


def _dotted_name(node: ast.expr) -> str:
    """Best-effort dotted name for a call target, e.g. ``tempfile.mkstemp``."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    else:
        return ""
    return ".".join(reversed(parts))


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function (or module) body without descending into nested
    function definitions — those form their own analysis scope."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _FunctionStackChecker(Checker):
    """Checker base that tracks the enclosing-function-name stack."""

    def __init__(self, context: FileContext) -> None:
        super().__init__(context)
        self._func_stack: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    @property
    def current_function(self) -> str:
        return self._func_stack[-1] if self._func_stack else ""


@register
class DataPlanePickleBan(_FunctionStackChecker):
    """RPL001 — the data plane moves bytes, never pickles.

    The zero-copy claim of the transport layer (PR 6's typed wire codec)
    holds only while record payloads stay as raw bytes end to end.  This
    rule bans ``pickle`` use in the data-plane modules, with a small
    allowlisted control-plane set inside the codec (``FMT_PICKLE`` framing
    for control messages).
    """

    code = "RPL001"
    name = "data-plane-pickle-ban"
    description = "no pickle.dumps/loads in data-plane modules outside the codec control-plane allowlist"

    DATA_PLANE_FILES = (
        ("repro", "common", "kv.py"),
        ("repro", "storage", "chunkstore.py"),
        ("repro", "storage", "spill.py"),
        ("repro", "mpi", "transport", "codec.py"),
    )
    #: Control-plane functions in codec.py that own the FMT_PICKLE framing.
    CODEC_ALLOWED_FUNCTIONS = frozenset({"encode_payload", "decode_payload"})
    PICKLE_ATTRS = frozenset({"dumps", "loads", "dump", "load", "Pickler", "Unpickler"})

    @classmethod
    def interested(cls, context: FileContext) -> bool:
        return any(context.path_endswith(*suffix) for suffix in cls.DATA_PLANE_FILES)

    def _in_codec_allowlist(self) -> bool:
        return (
            self.context.path_endswith("repro", "mpi", "transport", "codec.py")
            and self.current_function in self.CODEC_ALLOWED_FUNCTIONS
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "pickle":
            self.report(
                node,
                "data-plane module imports names from pickle directly; "
                "serialization belongs to the codec control plane",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted.startswith("pickle.") and dotted.split(".", 1)[1] in self.PICKLE_ATTRS:
            if not self._in_codec_allowlist():
                self.report(
                    node,
                    f"{dotted}() in a data-plane module; record payloads must stay "
                    "raw bytes (allowlisted control plane: codec "
                    + "/".join(sorted(self.CODEC_ALLOWED_FUNCTIONS))
                    + ")",
                )
        self.generic_visit(node)


@register
class ResourceLifecycle(Checker):
    """RPL002 — OS resources are released on every path.

    Every ``SharedMemory``/``socket``/``mmap``/``mkstemp`` acquisition must
    be (a) used as a ``with`` context, (b) stored on ``self`` (instance
    lifecycle), (c) returned directly (ownership transfer), or (d) bound to
    names that some ``except``/``finally`` handler in the same function
    releases.  The PR 5 shm-leak sweep as a lint rule.
    """

    code = "RPL002"
    name = "resource-lifecycle"
    description = "SharedMemory/socket/mmap/mkstemp acquisitions must be released on all paths"

    ACQUISITION_DOTTED = frozenset(
        {
            "tempfile.mkstemp",
            "mmap.mmap",
            "socket.socket",
            "socket.create_connection",
            "socket.socketpair",
            "shared_memory.SharedMemory",
            "multiprocessing.shared_memory.SharedMemory",
        }
    )
    ACQUISITION_BARE = frozenset({"mkstemp", "SharedMemory", "create_connection"})
    RELEASE_ATTRS = frozenset(
        {"close", "unlink", "cleanup", "release", "shutdown", "terminate", "detach"}
    )
    RELEASE_FUNCS = frozenset({"os.close", "os.unlink", "os.remove", "os.fdopen"})

    @classmethod
    def interested(cls, context: FileContext) -> bool:
        return context.is_repro_module

    def check(self) -> list:
        scopes: list[ast.AST] = [self.context.tree]
        for node in ast.walk(self.context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            self._check_scope(scope)
        return self.findings

    def _is_acquisition(self, call: ast.Call) -> bool:
        dotted = _dotted_name(call.func)
        if dotted in self.ACQUISITION_DOTTED:
            return True
        return isinstance(call.func, ast.Name) and call.func.id in self.ACQUISITION_BARE

    def _released_names(self, scope: ast.AST) -> set[str]:
        """Names a handler in this scope releases (close/unlink/...)."""
        released: set[str] = set()

        def harvest(body: list[ast.stmt]) -> None:
            for stmt in body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    dotted = _dotted_name(node.func)
                    if dotted in self.RELEASE_FUNCS:
                        # os.close(fd), os.unlink(path), ... release the args.
                        for arg in node.args:
                            for sub in ast.walk(arg):
                                if isinstance(sub, ast.Name):
                                    released.add(sub.id)
                    elif isinstance(node.func, ast.Attribute) and node.func.attr in self.RELEASE_ATTRS:
                        # x.close(), Path(p).unlink(), self._shm.close(), ...
                        for sub in ast.walk(node.func.value):
                            if isinstance(sub, ast.Name):
                                released.add(sub.id)

        for node in _walk_scope(scope):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    harvest(handler.body)
                harvest(node.finalbody)
            elif isinstance(node, ast.With):
                # `with os.fdopen(fd, ...) as f:` hands fd ownership to the
                # file object, which the with-block then closes.
                for item in node.items:
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Call) and _dotted_name(ctx.func) == "os.fdopen":
                        for arg in ctx.args:
                            for sub in ast.walk(arg):
                                if isinstance(sub, ast.Name):
                                    released.add(sub.id)
        return released

    def _check_scope(self, scope: ast.AST) -> None:
        protected: set[int] = set()
        assigned: dict[int, list[ast.expr]] = {}

        for node in _walk_scope(scope):
            if isinstance(node, ast.With):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        protected.add(id(sub))
            elif isinstance(node, ast.Return) and node.value is not None:
                protected.add(id(node.value))
            elif isinstance(node, ast.Assign):
                assigned[id(node.value)] = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigned[id(node.value)] = [node.target]

        released: set[str] | None = None  # computed lazily
        for node in _walk_scope(scope):
            if not isinstance(node, ast.Call) or not self._is_acquisition(node):
                continue
            if id(node) in protected:
                continue
            targets = assigned.get(id(node))
            if targets is None:
                self.report(
                    node,
                    f"{_dotted_name(node.func) or 'resource acquisition'} result is "
                    "not bound to a name, a with-block, or a return; it cannot be "
                    "released on failure",
                )
                continue
            if all(isinstance(t, ast.Attribute) for t in targets):
                continue  # stored on an object; lifecycle owned by the instance
            if released is None:
                released = self._released_names(scope)
            names: list[str] = []
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.append(sub.id)
            leaky = [n for n in names if not n.startswith("_") and n not in released]
            if leaky:
                self.report(
                    node,
                    f"{_dotted_name(node.func) or 'resource acquisition'} binds "
                    f"{', '.join(sorted(set(leaky)))} but no except/finally handler in "
                    "this function releases it; use `with`, try/finally, or close on "
                    "the error path",
                )


@register
class TagDiscipline(Checker):
    """RPL003 — message tags come from named constants, never literals.

    The PR 1 tag-collision bug as a lint rule: a literal tag at a
    ``Comm.send``/``recv`` call site can silently collide with another
    protocol's traffic.  Tags must be module-level named constants.
    """

    code = "RPL003"
    name = "tag-discipline"
    description = "no literal int tags at Comm.send/recv call sites"

    def _flag(self, call: ast.Call, value: ast.expr, where: str) -> None:
        if isinstance(value, ast.Constant) and isinstance(value.value, int) and not isinstance(value.value, bool):
            self.report(
                call,
                f"literal tag {value.value} passed {where}; use a named tag constant "
                "(e.g. TAG_DATA) so tags cannot collide silently",
            )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "send" and len(node.args) >= 3:
                self._flag(node, node.args[2], "as Comm.send positional tag")
            elif node.func.attr == "recv" and len(node.args) >= 2:
                self._flag(node, node.args[1], "as Comm.recv positional tag")
            if node.func.attr in ("send", "recv"):
                for kw in node.keywords:
                    if kw.arg == "tag":
                        self._flag(node, kw.value, "as tag= keyword")
        self.generic_visit(node)


@register
class SleepBan(_FunctionStackChecker):
    """RPL004 — no bare ``time.sleep`` polling.

    Sleeping hides races and slows the suite; waits must be deadline-bounded
    (``wait_until`` in ``tests/conftest.py``, or condition variables in
    ``src/``).  The fault-injection ``delay`` action is the allowlisted
    exception — injecting latency is its job.
    """

    code = "RPL004"
    name = "sleep-ban"
    description = "no bare time.sleep polling in src/ and tests/; use deadline helpers"

    @classmethod
    def interested(cls, context: FileContext) -> bool:
        return context.is_repro_module or context.is_test_file

    def _allowlisted(self) -> bool:
        # faultinject's `delay@point` action exists to inject latency.
        return (
            self.context.path_endswith("repro", "mpi", "faultinject.py")
            and self.current_function == "_execute"
        )

    def __init__(self, context: FileContext) -> None:
        super().__init__(context)
        self._bare_sleep_imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name == "sleep" for alias in node.names)
            for node in ast.walk(context.tree)
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        is_sleep = dotted == "time.sleep" or (
            self._bare_sleep_imported and dotted == "sleep"
        )
        if is_sleep and not self._allowlisted():
            self.report(
                node,
                "bare time.sleep; poll with a deadline helper (tests: the "
                "`wait_until` fixture) or block on a condition variable",
            )
        self.generic_visit(node)


@register
class FaultPointCoverage(Checker):
    """RPL006 — superstep/phase drivers stay fault-injectable.

    The deterministic fault harness (PR 8) is only as good as its coverage:
    every driver loop in ``datampi/`` and ``serving/`` must pass through a
    ``faultinject.fire`` point, directly or by delegating to an instrumented
    ``run_*superstep`` helper.
    """

    code = "RPL006"
    name = "fault-point-coverage"
    description = "superstep/phase driver functions must call a faultinject point"

    INSTRUMENTED_DELEGATES = frozenset(
        {"run_superstep", "run_o_superstep", "run_a_superstep"}
    )

    @classmethod
    def interested(cls, context: FileContext) -> bool:
        return context.is_repro_module and (
            context.module_has_part("datampi") or context.module_has_part("serving")
        )

    def _is_covered(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            terminal = dotted.rsplit(".", 1)[-1]
            if terminal == "fire" or terminal in self.INSTRUMENTED_DELEGATES:
                return True
        return False

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if "superstep" in node.name and not self._is_covered(node):
            self.report(
                node,
                f"driver function {node.name}() has no faultinject.fire point and "
                "does not delegate to an instrumented run_*superstep helper",
            )
        self.generic_visit(node)

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


@register
class LockDiscipline(Checker):
    """RPL007 — ``#: guarded-by <lock>`` attributes touched only under the lock.

    Declare an attribute's lock at its ``__init__`` assignment::

        self._pending: dict[int, JobFuture] = {}  #: guarded-by _lock

    Every other method must then access ``self._pending`` inside
    ``with self._lock:``.  Methods whose names end in ``_locked`` assert the
    caller already holds the lock and are exempt.
    """

    code = "RPL007"
    name = "lock-discipline"
    description = "attributes annotated '#: guarded-by <lock>' accessed only under 'with self.<lock>'"

    import re as _re

    _GUARD_RE = _re.compile(r"#:\s*guarded-by\s+([A-Za-z_]\w*)")

    def check(self) -> list:
        guard_lines: dict[int, str] = {}
        for lineno, text in enumerate(self.context.lines, start=1):
            match = self._GUARD_RE.search(text)
            if match:
                guard_lines[lineno] = match.group(1)
        if not guard_lines:
            return self.findings
        for node in ast.walk(self.context.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(node, guard_lines)
        return self.findings

    def _check_class(self, cls: ast.ClassDef, guard_lines: dict[int, str]) -> None:
        guarded: dict[str, str] = {}  # attr -> lock name
        declaring_lines: set[int] = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                lock = guard_lines.get(node.lineno)
                if lock is None:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        guarded[target.attr] = lock
                        declaring_lines.add(node.lineno)
        if not guarded:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__" or stmt.name.endswith("_locked"):
                continue
            self._check_method(stmt, guarded, declaring_lines)

    def _check_method(
        self,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: dict[str, str],
        declaring_lines: set[int],
    ) -> None:
        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A nested function may run under a lock its caller holds
                # (e.g. a matcher closure invoked inside `with self._cond`);
                # that is undecidable lexically, so closures are out of scope.
                return
            if isinstance(node, ast.With):
                newly = set()
                for item in node.items:
                    ctx = item.context_expr
                    if (
                        isinstance(ctx, ast.Attribute)
                        and isinstance(ctx.value, ast.Name)
                        and ctx.value.id == "self"
                    ):
                        newly.add(ctx.attr)
                inner = held | frozenset(newly)
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guarded
                and node.lineno not in declaring_lines
            ):
                lock = guarded[node.attr]
                if lock not in held:
                    self.report(
                        node,
                        f"self.{node.attr} is declared '#: guarded-by {lock}' but is "
                        f"accessed outside 'with self.{lock}' in {method.name}()",
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in method.body:
            visit(stmt, frozenset())
