"""EPHEMERAL procedures (paper section 3.3, Figure 3).

A procedure is *ephemeral* when it can be asynchronously terminated without
damaging important state; only ephemeral handlers may run at interrupt
level.  The SPIN compiler enforces the closure property "ephemeral
procedures only call other ephemeral procedures" at compile time.

This module reproduces that check at *declaration* time (the closest thing
Python has to compile time): the :func:`ephemeral` decorator disassembles
the procedure's bytecode, resolves the procedures it references, and raises
:class:`EphemeralViolation` immediately -- before the procedure can ever be
installed -- if it references a procedure that is neither ephemeral nor
registered as a safe primitive.  Figure 3's ``IllegalHandler`` therefore
fails at the decorator, exactly where Modula-3 fails it at the compiler.

What is checked:

* Global procedure references (``Enqueue(...)``) -- resolved through the
  function's globals and builtins.
* Module-qualified references (``NonBlockingQueue.Enqueue(...)``) --
  resolved through the module object.
* Method calls on parameters with class annotations (``q.enqueue(m)``
  where ``q: NonBlockingQueue``) -- resolved through the class.

Procedures marked :func:`may_block` are rejected outright, however they
are reached statically.  ``getattr`` is not a safe builtin, so a
procedure looked up by name (``getattr(m, "wait")(x)``) is rejected
too.  References the verifier cannot resolve statically are permitted
and are a limitation relative to a real compiler.  Two are known:

* a callable reached through a default-argument container
  (``def h(x, t={"w": wait}): t["w"](x)``), and
* a procedure passed in as a parameter (``def h(m, cb): cb(m)``).

The dispatcher's second, dynamic check covers them: an interrupt-level
handler runs under a time limit, and one that overruns it is terminated
with only its allotment consumed (paper sec. 3.3).
"""

from __future__ import annotations

import builtins
import dis
import types
from typing import Any, Callable, Dict, Iterable, Optional, Set

__all__ = [
    "ephemeral",
    "may_block",
    "is_ephemeral",
    "is_blocking",
    "register_safe",
    "EphemeralViolation",
    "SAFE_BUILTINS",
]


class EphemeralViolation(TypeError):
    """Raised when an @ephemeral procedure fails verification."""


#: Builtins considered safe inside an ephemeral procedure: pure, bounded,
#: non-blocking.  I/O builtins (open, input) are deliberately absent.
SAFE_BUILTINS: Set[str] = {
    "len", "range", "min", "max", "abs", "sum", "int", "float", "bool",
    "bytes", "bytearray", "memoryview", "ord", "chr", "divmod", "hash",
    "isinstance", "issubclass", "iter", "next", "enumerate", "zip", "map",
    "filter", "sorted", "reversed", "tuple", "list", "dict", "set",
    "frozenset", "str", "repr", "id", "hasattr", "callable",
    "round", "pow", "all", "any", "slice", "type",
}

# Registry of callables explicitly blessed as safe-to-call from ephemeral
# code (the trusted kernel primitives such as non-blocking queue inserts).
_SAFE_CALLABLES: Set[int] = set()


def register_safe(fn: Callable) -> Callable:
    """Bless ``fn`` as callable from ephemeral procedures.

    Used by trusted kernel primitives that are non-blocking and
    termination-safe but are not themselves subject to verification (they
    may legitimately use machinery the verifier cannot analyse).
    """
    _SAFE_CALLABLES.add(id(fn))
    try:
        fn.__ephemeral_safe__ = True
    except (AttributeError, TypeError):
        pass  # builtins / bound methods reject attribute assignment
    return fn


def may_block(fn: Callable) -> Callable:
    """Mark ``fn`` as potentially blocking; ephemeral code may never call it."""
    fn.__may_block__ = True
    return fn


def is_ephemeral(fn: Any) -> bool:
    return bool(getattr(fn, "__ephemeral__", False))


def is_blocking(fn: Any) -> bool:
    return bool(getattr(fn, "__may_block__", False))


def _is_safe_callable(obj: Any) -> bool:
    if is_ephemeral(obj):
        return True
    if getattr(obj, "__ephemeral_safe__", False):
        return True
    if id(obj) in _SAFE_CALLABLES:
        return True
    # Unbound method blessed on the class but looked up via instance.
    func = getattr(obj, "__func__", None)
    if func is not None and (is_ephemeral(func) or getattr(func, "__ephemeral_safe__", False)):
        return True
    return False


def _annotation_class(annotation: Any) -> Optional[type]:
    if isinstance(annotation, type):
        return annotation
    return None


def _iter_code_objects(code: types.CodeType) -> Iterable[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _iter_code_objects(const)


def _check_target(owner_name: str, attr: Optional[str], target: Any,
                  fn_name: str) -> None:
    """Validate one resolved reference from an ephemeral procedure."""
    display = owner_name if attr is None else "%s.%s" % (owner_name, attr)
    if is_blocking(target):
        raise EphemeralViolation(
            "EPHEMERAL procedure %r calls %s, which MAY BLOCK; ephemeral "
            "code must not block (paper sec. 3.3)" % (fn_name, display))
    func = getattr(target, "__func__", target)
    if isinstance(func, (types.FunctionType, types.BuiltinFunctionType, types.MethodType)):
        if isinstance(func, types.BuiltinFunctionType):
            if func.__name__ in SAFE_BUILTINS or _is_safe_callable(func):
                return
            raise EphemeralViolation(
                "EPHEMERAL procedure %r references builtin %s, which is not "
                "on the safe list" % (fn_name, display))
        if not _is_safe_callable(target) and not _is_safe_callable(func):
            raise EphemeralViolation(
                "EPHEMERAL procedure %r calls %s, which is not declared "
                "EPHEMERAL (paper Figure 3: ephemeral procedures may only "
                "call other ephemeral procedures)" % (fn_name, display))


def _verify(fn: types.FunctionType) -> None:
    """The 'compiler pass': verify every resolvable reference in ``fn``."""
    fn_globals: Dict[str, Any] = fn.__globals__
    annotations = getattr(fn, "__annotations__", {})
    param_classes: Dict[str, type] = {}
    for param, annotation in annotations.items():
        cls = _annotation_class(annotation)
        if cls is not None:
            param_classes[param] = cls

    # Closure cells: map free-variable names to their current contents so
    # references through enclosing scopes are verified too.
    closure_values: Dict[str, Any] = {}
    if fn.__closure__:
        for var_name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                closure_values[var_name] = cell.cell_contents
            except ValueError:
                pass  # cell not yet filled (recursive definition)

    for code in _iter_code_objects(fn.__code__):
        instructions = list(dis.get_instructions(code))
        for index, instr in enumerate(instructions):
            if instr.opname in ("LOAD_GLOBAL", "LOAD_DEREF"):
                name = instr.argval
                if instr.opname == "LOAD_DEREF":
                    if name not in closure_values:
                        continue
                    target = closure_values[name]
                elif name in fn_globals:
                    target = fn_globals[name]
                elif hasattr(builtins, name):
                    target = getattr(builtins, name)
                else:
                    continue  # resolved at run time; nothing to check
                follow = instructions[index + 1] if index + 1 < len(instructions) else None
                if follow is not None and follow.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                    if isinstance(target, types.ModuleType) or isinstance(target, type):
                        attr_target = getattr(target, follow.argval, None)
                        if attr_target is not None and callable(attr_target):
                            _check_target(name, follow.argval, attr_target, fn.__qualname__)
                    continue
                if isinstance(target, types.BuiltinFunctionType):
                    _check_target(name, None, target, fn.__qualname__)
                elif isinstance(target, types.FunctionType):
                    _check_target(name, None, target, fn.__qualname__)
                elif isinstance(target, type):
                    # Bare class reference used as a constructor: allow
                    # plain constructors, reject blocking ones.
                    if is_blocking(target):
                        _check_target(name, None, target, fn.__qualname__)
            elif instr.opname == "LOAD_FAST":
                param = instr.argval
                cls = param_classes.get(param)
                if cls is None:
                    continue
                follow = instructions[index + 1] if index + 1 < len(instructions) else None
                if follow is not None and follow.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                    attr_target = getattr(cls, follow.argval, None)
                    if attr_target is not None and callable(attr_target) and \
                            isinstance(attr_target, (types.FunctionType, types.MethodType)):
                        _check_target(param, follow.argval, attr_target, fn.__qualname__)


def ephemeral(fn: Callable) -> Callable:
    """Declare ``fn`` EPHEMERAL and verify it immediately.

    Raises :class:`EphemeralViolation` at declaration time if ``fn``
    references a non-ephemeral, non-safe procedure -- reproducing the
    compile-time rejection in Figure 3 of the paper.
    """
    if not isinstance(fn, types.FunctionType):
        raise EphemeralViolation(
            "@ephemeral applies to plain procedures, got %r" % (fn,))
    fn.__ephemeral__ = True  # set before verification to allow recursion
    try:
        _verify(fn)
    except EphemeralViolation:
        fn.__ephemeral__ = False
        raise
    return fn
