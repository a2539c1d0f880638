"""Generated delivery paths: an event's handler list compiled to Python.

The paper's specialized-path argument, applied to the installed protocol
set rather than to each flow: an event's handler snapshot is compiled
via ``compile()`` + ``exec`` into one straight-line function in which
cost charges are constants bound as default arguments, handler calls are
direct, and the tests of guards built by :mod:`repro.core.filters`
(``guard.tests`` / ``guard.need``) are inlined; any other guard is
called.  An inlined test reads a header field only when the arguments
are what the guard expects (their count, an :class:`~repro.spin.mbuf.Mbuf`,
a non-negative ``int`` offset) and the head mbuf holds ``need`` bytes;
otherwise it calls the guard, the reference semantics.  Live sets are
bound by reference, so the next raise sees a change to one.

Snapshots of one shape -- the same sequence of (inline / thread,
guarded?, time-limited?, test shape) steps -- share one code object,
process-wide; a handle's atom is computed once, at install, and only the
factory binding handles, operands and costs runs per compile.  A
generated function moves exactly the counters the interpreted scan
moves; the dispatcher counts the compilations.

Bit-exactness rules (the generated code *is* the interpreter loop,
specialized -- not an approximation of it):

* every simulated charge is emitted as its own ``+=``: float addition is
  not associative, so adjacent charges are never summed into one
  precomputed constant even when the frozen CostTable would allow it;
* a guard is charged ``guard_eval`` whether its tests are inlined or it
  is called, and an exception from either is contained as the
  interpreter contains it;
* ``cpu.profile`` frames are pushed/popped exactly as the interpreted
  scan does, so flamegraphs see compiled raises identically;
* a charge outside any kernel path raises ``ChargeError(OUTSIDE_PATH)``
  before the first step, where the scan's first charge would raise it:
  every step charges (a guard or a matched handler), and every snapshot
  handle is installed at entry;
* per-step ``installed`` checks are retained wherever user code (a
  guard or inline handler) may already have run in the raise, so a
  handler uninstalled mid-raise is skipped just as the interpreted
  snapshot walk skips it; before any user call the flag provably still
  holds its at-entry value and the check is elided.

``REPRO_FLOW_CACHE=0`` (read by the dispatcher) turns generation off:
every raise is then the interpreted linear scan
(``Dispatcher._scan_linear``) these functions are checked against.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Tuple

from ..hw.cpu import MISMATCHED_END, OUTSIDE_PATH, ChargeError
from .mbuf import Mbuf

__all__ = ["compile_scan", "handle_atom"]

#: atoms -> factory.  Process-wide: structurally identical snapshots
#: share one code object across events and dispatchers.
_FACTORIES: Dict[Tuple, Callable] = {}

_OPS = ("==", "in", "not in")

_atom_of = attrgetter("atom")


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

def _index(value) -> bool:
    return type(value) is int and value >= 0


def _test_shape(guard):
    """``(arity, field, need, ((source, op), ...))`` for a data guard;
    None for any other, and for ``tests`` not of ``repro.core.filters``'
    form: the shape is pasted into generated source."""
    tests, need = getattr(guard, "tests", None), getattr(guard, "need", None)
    code = getattr(guard, "__code__", None)
    if type(tests) is not tuple or not tests or not _index(need) or not code:
        return None
    field = None
    for test in tests:
        if type(test) is not tuple or len(test) != 3 or test[1] not in _OPS:
            return None
        source = test[0]
        if type(source) is tuple and len(source) == 3 \
                and field in (None, source) and _index(source[0]) \
                and (source[1] is None or _index(source[1])) \
                and _index(source[2]) and source[2] + 2 <= need:
            field = source
        elif not _index(source):
            return None
    return (code.co_argcount, field, need if field else 0,
            tuple((test[0], test[1]) for test in tests))


def handle_atom(mode: str, guard, time_limit) -> Tuple[Tuple, Tuple]:
    """``(atom, operands)`` for a handle: its structural atom -- I[g][l]
    inline or T[g] thread, and its guard's test shape -- and the test
    operands the generated code binds."""
    kind = "T" if mode == "thread" else "I"
    if guard is not None:
        kind += "g"
    if time_limit is not None and mode != "thread":
        kind += "l"
    shape = _test_shape(guard)
    operands = tuple(test[2] for test in guard.tests) if shape else ()
    return (kind, shape), operands


# ---------------------------------------------------------------------------
# source emission
# ---------------------------------------------------------------------------

def _defaults(atoms) -> List[str]:
    """Default-argument bindings: everything the body touches is a local.

    Binding handles, handlers, guards, operands and the cost constants as
    default arguments turns every access into a ``LOAD_FAST`` -- no
    closure dereferences, no attribute walks -- which is where the
    generated code's speed over the interpreted scan comes from.
    """
    lines = [
        "_dispatcher=dispatcher",
        "_name=event.name",
        "_gc=costs.guard_eval",
        "_hc=costs.dispatch_per_handler",
        # The CPU and its accumulator list are assigned once in
        # CPU.__init__ and never rebound, so their identities are safe
        # to freeze.  category_times and profile ARE rebound (by the
        # repro.obs profiler hook) and must be read fresh per call.
        "_cpu=dispatcher.host.cpu",
        "_stack=dispatcher.host.cpu._stack",
    ]
    if any(kind.startswith("T") for kind, _shape in atoms):
        lines.append("_delegate=dispatcher._delegate_to_thread")
    if any(shape and shape[1] for _kind, shape in atoms):
        lines += ["_Mbuf=Mbuf", "_int=int"]
    for i, (kind, shape) in enumerate(atoms):
        lines.append("_h%d=handles[%d]" % (i, i))
        if kind.startswith("I"):
            lines.append("_h%d_handler=handles[%d].handler" % (i, i))
        if kind.endswith("l"):
            lines.append("_h%d_limit=handles[%d].time_limit" % (i, i))
        if "g" in kind:
            lines.append("_h%d_guard=handles[%d].guard" % (i, i))
        for j in range(len(shape[3]) if shape else 0):
            lines.append("_h%d_c%d=handles[%d].operands[%d]" % (i, j, i, j))
    return lines


def _emit_tests(out: List[str], i: int, shape, pad: str) -> None:
    """``_rejected`` from the inlined tests of handle ``i``'s guard, or
    from a call to it where the inline reads would not be exact."""
    arity, field, need, tests = shape
    cond = "_n == %d" % arity
    if field:
        m_arg, off_arg, byte = field
        cond += " and (_m := args[%d]).__class__ is _Mbuf" % m_arg
        if off_arg is None:
            cond += " and _m.len >= %d" % need
            base = "_m.off + %d" % byte
        else:
            cond += (" and (_o := args[%d]).__class__ is _int and _o >= 0"
                     " and _m.len >= _o + %d" % (off_arg, need))
            base = "_m.off + _o + %d" % byte
    out.append(pad + "if %s:" % cond)
    if field:
        out.append(pad + "    _st, _b = _m._storage, %s" % base)
        out.append(pad + "    _v = (_st[_b] << 8) | _st[_b + 1]")
    terms = ["%s %s _h%d_c%d" % ("_v" if source == field else
                                 "args[%d]" % source, op, i, j)
             for j, (source, op) in enumerate(tests)]
    out.append(pad + "    _rejected = not (%s)" % " and ".join(terms))
    out.append(pad + "else:")
    out.append(pad + "    _rejected = not _h%d_guard(*args)" % i)


def _emit_matched(out: List[str], kind: str, i: int, pad: str) -> None:
    """The matched-handle tail: handler charge, then delivery."""
    out.append(pad + "matched += 1")
    out.append(pad + "_stack[-1] += _hc")
    out.append(pad + 'times["dispatch"] += _hc')
    if kind.startswith("T"):
        out.append(pad + "_delegate(_h%d, args)" % i)
        return
    out.append(pad + "_h%d.invocations += 1" % i)
    out.append(pad + "_dispatcher.total_invocations += 1")
    out.append(pad + "_stack.append(0.0)")
    out.append(pad + "marker = len(_stack)")
    out.append(pad + "try:")
    out.append(pad + "    _h%d_handler(*args)" % i)
    out.append(pad + "except Exception as exc:")
    out.append(pad + "    _h%d.failures += 1" % i)
    out.append(pad + "    _dispatcher.total_failures += 1")
    out.append(pad + "    _h%d.last_error = exc" % i)
    out.append(pad + "finally:")
    out.append(pad + "    if marker != len(_stack):")
    out.append(pad + "        raise ChargeError("
                     "MISMATCHED_END % (marker, len(_stack)))")
    out.append(pad + "    spent = _stack.pop()")
    if kind.endswith("l"):
        out.append(pad + "if spent > _h%d_limit:" % i)
        out.append(pad + "    _h%d.terminations += 1" % i)
        out.append(pad + "    _dispatcher.total_terminations += 1")
        out.append(pad + "    _stack[-1] += _h%d_limit" % i)
        out.append(pad + "else:")
        out.append(pad + "    _stack[-1] += spent")
    else:
        out.append(pad + "_stack[-1] += spent")


def _emit_source(atoms) -> str:
    """The factory module source for one snapshot shape."""
    out = ["def _factory(event, dispatcher, handles, costs):"]
    out.append("    def _compiled(")
    out.append("        args,")
    for default in _defaults(atoms):
        out.append("        %s," % default)
    out.append("    ):")
    b = "        "
    out.append(b + "times = _cpu.category_times")
    out.append(b + "_dispatcher.total_raises += 1")
    out.append(b + "matched = 0")
    if any(shape for _kind, shape in atoms):
        out.append(b + "_n = len(args)")
    out.append(b + "profile = _cpu.profile")
    out.append(b + "if profile is not None:")
    out.append(b + "    profile.push(_name)")
    out.append(b + "try:")
    t = b + "    "
    if atoms:
        # The interpreted scan raises at its first charge; every handle
        # is installed at entry (a bumped snapshot drops the scan) and
        # every step charges, so step 0 always charges and the hoisted
        # check is equivalent.
        out.append(t + "if not _stack:")
        out.append(t + "    raise ChargeError(OUTSIDE_PATH)")
    else:
        out.append(t + "pass")
    # A handle's ``installed`` flag can only flip mid-raise from user
    # code (a guard or inline handler call) -- every snapshot handle is
    # installed at entry, and thread delegation runs no user code -- so
    # the per-step check is elided until a user call site has been
    # emitted.
    user_code = False
    for i, (kind, shape) in enumerate(atoms):
        if user_code:
            out.append(t + "if _h%d.installed:" % i)
            s = t + "    "
        else:
            s = t
        if kind.startswith("I") or "g" in kind:
            user_code = True
        if "g" not in kind:
            _emit_matched(out, kind, i, s)
            continue
        out.append(s + "_stack[-1] += _gc")
        out.append(s + 'times["dispatch"] += _gc')
        # ``not`` stays inside the try: a guard whose truthiness
        # coercion throws is contained exactly as the interpreter
        # contains it.
        out.append(s + "try:")
        if shape:
            _emit_tests(out, i, shape, s + "    ")
        else:
            out.append(s + "    _rejected = not _h%d_guard(*args)" % i)
        out.append(s + "except Exception as exc:")
        out.append(s + "    _h%d.failures += 1" % i)
        out.append(s + "    _dispatcher.total_failures += 1")
        out.append(s + "    _h%d.last_error = exc" % i)
        out.append(s + "else:")
        out.append(s + "    if _rejected:")
        out.append(s + "        _h%d.guard_rejections += 1" % i)
        out.append(s + "    else:")
        _emit_matched(out, kind, i, s + "        ")
    out.append(b + "finally:")
    out.append(b + "    if profile is not None:")
    out.append(b + "        profile.pop()")
    out.append(b + "return matched")
    out.append("    return _compiled")
    return "\n".join(out) + "\n"


def _factory_for(atoms: Tuple) -> Callable:
    namespace = {
        "ChargeError": ChargeError,
        "OUTSIDE_PATH": OUTSIDE_PATH,
        "MISMATCHED_END": MISMATCHED_END,
        "Mbuf": Mbuf,
    }
    code = compile(_emit_source(atoms), "<codegen:scan:%s>" % (
        "".join(kind for kind, _shape in atoms) or "0"), "exec")
    exec(code, namespace)
    factory = namespace["_factory"]
    _FACTORIES[atoms] = factory
    return factory


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def compile_scan(dispatcher, event, snapshot) -> Callable:
    """One generated function for the linear scan of ``event``'s
    handler snapshot: the walk specialized (branch layout, constant
    costs, direct calls, inlined data-guard tests), the verdicts not."""
    atoms = tuple(map(_atom_of, snapshot))
    factory = _FACTORIES.get(atoms) or _factory_for(atoms)
    fn = factory(event, dispatcher, snapshot, dispatcher.host.costs)
    dispatcher.compiled_scans += 1
    return fn
