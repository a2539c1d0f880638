"""Generated delivery paths: plans and scans compiled to Python source.

The flow cache records the guard verdicts of a (flow, event) pair; this
module is how they are served, the move the paper's specialized-path
argument calls for: the verdict list -- or, for flowless events, the
handler snapshot itself -- is compiled via ``compile()`` + ``exec`` into
one straight-line Python function in which guard verdicts are branches,
cost charges are constants bound as default arguments, and handler calls
are direct.

Shape cache: two plans with the same structure -- the same sequence of
(rejected / inline / thread, guarded?, time-limited?) steps -- share one
code object, process-wide.  Only the tiny factory call binding the
concrete handles and cost constants runs per plan, so the ``compile()``
cost is paid once per *shape*, not once per flow.

A generated function moves exactly what the interpreted scan moves: the
dispatcher's ``total_raises`` once per raise, and per step the handle's
and the dispatcher's invocation, rejection, failure and termination
counters.  It keeps no count of its own; the flow cache counts the
compilations, and its ``hits`` are the plan replays.

Bit-exactness rules (the generated code *is* the interpreter loop,
specialized -- not an approximation of it):

* every simulated charge is emitted as its own ``+=``: float addition is
  not associative, so adjacent charges are never summed into one
  precomputed constant even when the frozen CostTable would allow it;
* ``cpu.profile`` frames are pushed/popped exactly as the interpreted
  scan does, so flamegraphs see compiled raises identically;
* a charge outside any kernel path raises ``ChargeError(OUTSIDE_PATH)``
  before the first step, where the scan's first charge would raise it:
  every step charges (a guard, a recorded rejection or a matched
  handler), and every snapshot handle is installed at entry;
* per-step ``installed`` checks are retained wherever user code (a
  guard or inline handler) has already run in the raise, so a handler
  uninstalled mid-raise is skipped just as the interpreted snapshot
  walk skips it; before any user call the flag provably still holds its
  at-entry value (every snapshot handle is installed at entry) and the
  check is elided.

There is no switch for this module alone: generated code is the default
rung, and ``REPRO_FLOW_CACHE=0`` (read by ``repro.spin.flowcache``) is
the other one -- no plans, no scans, every raise the interpreted linear
scan (``Dispatcher._scan_linear``) these functions are checked against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..hw.cpu import MISMATCHED_END, OUTSIDE_PATH, ChargeError

__all__ = ["compile_plan", "compile_scan"]

#: (kind, atoms) -> factory.  Process-wide: structurally identical plans
#: share one code object across flows, events, and dispatchers.
_FACTORIES: Dict[Tuple, Callable] = {}


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

def _handle_atom(handle) -> str:
    """Structural atom for one matched handle: I[g][l] inline, T[g] thread."""
    if handle.mode == "thread":
        return "Tg" if handle.guard is not None else "T"
    atom = "I"
    if handle.guard is not None:
        atom += "g"
    if handle.time_limit is not None:
        atom += "l"
    return atom


def _plan_atoms(steps) -> Tuple[str, ...]:
    """Plan shape: ``R`` for a recorded rejection, handle atoms otherwise."""
    return tuple("R" if not ok else _handle_atom(handle)
                 for handle, ok in steps)


# ---------------------------------------------------------------------------
# source emission
# ---------------------------------------------------------------------------

def _defaults(kind: str, atoms) -> List[str]:
    """Default-argument bindings: everything the body touches is a local.

    Binding handles, handlers, guards, and the cost constants as default
    arguments turns every access into a ``LOAD_FAST`` -- no closure
    dereferences, no attribute walks -- which is where the generated
    code's speed over the interpreted scan comes from.
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
    if any(atom.startswith("T") for atom in atoms):
        lines.append("_delegate=dispatcher._delegate_to_thread")
    for i, atom in enumerate(atoms):
        lines.append("_h%d=handles[%d]" % (i, i))
        if atom.startswith("I"):
            lines.append("_h%d_handler=handles[%d].handler" % (i, i))
        if atom.endswith("l"):
            lines.append("_h%d_limit=handles[%d].time_limit" % (i, i))
        if kind == "scan" and "g" in atom:
            lines.append("_h%d_guard=handles[%d].guard" % (i, i))
    return lines


def _emit_guard_charge(out: List[str], pad: str) -> None:
    out.append(pad + "_stack[-1] += _gc")
    out.append(pad + 'times["dispatch"] += _gc')


def _emit_matched(out: List[str], atom: str, i: int, pad: str) -> None:
    """The matched-handle tail: handler charge, then delivery."""
    out.append(pad + "matched += 1")
    out.append(pad + "_stack[-1] += _hc")
    out.append(pad + 'times["dispatch"] += _hc')
    if atom.startswith("T"):
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
    if atom.endswith("l"):
        out.append(pad + "if spent > _h%d_limit:" % i)
        out.append(pad + "    _h%d.terminations += 1" % i)
        out.append(pad + "    _dispatcher.total_terminations += 1")
        out.append(pad + "    _stack[-1] += _h%d_limit" % i)
        out.append(pad + "else:")
        out.append(pad + "    _stack[-1] += spent")
    else:
        out.append(pad + "_stack[-1] += spent")


def _emit_source(kind: str, atoms) -> str:
    """The factory module source for one (kind, shape)."""
    out = ["def _factory(event, dispatcher, handles, costs):"]
    out.append("    def _compiled(")
    out.append("        args,")
    for default in _defaults(kind, atoms):
        out.append("        %s," % default)
    out.append("    ):")
    b = "        "
    out.append(b + "times = _cpu.category_times")
    out.append(b + "_dispatcher.total_raises += 1")
    out.append(b + "matched = 0")
    out.append(b + "profile = _cpu.profile")
    out.append(b + "if profile is not None:")
    out.append(b + "    profile.push(_name)")
    out.append(b + "try:")
    t = b + "    "
    if atoms:
        # The interpreted scan raises at its first charge; every handle
        # is installed at entry (a bumped snapshot invalidates the plan
        # or scan) and every step charges, so step 0 always charges and
        # the hoisted check is equivalent.
        out.append(t + "if not _stack:")
        out.append(t + "    raise ChargeError(OUTSIDE_PATH)")
    else:
        out.append(t + "pass")
    # A handle's ``installed`` flag can only flip mid-raise from user
    # code (a guard or inline handler call) -- every snapshot handle is
    # installed at entry, rejected-verdict charges and thread delegation
    # run no user code -- so the per-step check is elided until a user
    # call site has been emitted.
    user_code = False
    for i, atom in enumerate(atoms):
        if user_code:
            out.append(t + "if _h%d.installed:" % i)
            s = t + "    "
        else:
            s = t
        if atom.startswith("I") or (kind == "scan" and "g" in atom):
            user_code = True
        if kind == "plan":
            if atom == "R":
                _emit_guard_charge(out, s)
                out.append(s + "_h%d.guard_rejections += 1" % i)
            else:
                if "g" in atom:
                    _emit_guard_charge(out, s)
                _emit_matched(out, atom, i, s)
        elif "g" in atom:
            _emit_guard_charge(out, s)
            # ``not`` stays inside the try: a guard whose truthiness
            # coercion throws is contained exactly as the interpreter
            # contains it.
            out.append(s + "try:")
            out.append(s + "    _rejected = not _h%d_guard(*args)" % i)
            out.append(s + "except Exception as exc:")
            out.append(s + "    _h%d.failures += 1" % i)
            out.append(s + "    _dispatcher.total_failures += 1")
            out.append(s + "    _h%d.last_error = exc" % i)
            out.append(s + "else:")
            out.append(s + "    if _rejected:")
            out.append(s + "        _h%d.guard_rejections += 1" % i)
            out.append(s + "    else:")
            _emit_matched(out, atom, i, s + "        ")
        else:
            _emit_matched(out, atom, i, s)
    out.append(b + "finally:")
    out.append(b + "    if profile is not None:")
    out.append(b + "        profile.pop()")
    out.append(b + "return matched")
    out.append("    return _compiled")
    return "\n".join(out) + "\n"


def _factory_for(kind: str, atoms: Tuple[str, ...]) -> Callable:
    key = (kind, atoms)
    factory = _FACTORIES.get(key)
    if factory is not None:
        return factory
    source = _emit_source(kind, atoms)
    namespace = {
        "ChargeError": ChargeError,
        "OUTSIDE_PATH": OUTSIDE_PATH,
        "MISMATCHED_END": MISMATCHED_END,
    }
    code = compile(source, "<codegen:%s:%s>" % (kind, "".join(atoms) or "0"),
                   "exec")
    exec(code, namespace)
    factory = namespace["_factory"]
    _FACTORIES[key] = factory
    return factory


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def compile_plan(dispatcher, event, steps) -> Callable:
    """One generated function replaying ``steps`` for a (flow, event)."""
    factory = _factory_for("plan", _plan_atoms(steps))
    fn = factory(event, dispatcher, tuple(handle for handle, _ok in steps),
                 dispatcher.host.costs)
    dispatcher.flow_cache.compiled_plans += 1
    return fn


def compile_scan(dispatcher, event, snapshot) -> Callable:
    """One generated function for the flowless linear scan of ``event``.

    Unlike a plan, the scan calls every live guard -- it specializes the
    walk (branch layout, constant costs, direct calls), not the
    verdicts, so it applies to events with no flow entry at all (e.g.
    the dispatcher micro-benchmark's raw ``raise_event`` loop).
    """
    atoms = tuple(_handle_atom(handle) for handle in snapshot)
    factory = _factory_for("scan", atoms)
    fn = factory(event, dispatcher, snapshot, dispatcher.host.costs)
    dispatcher.flow_cache.compiled_scans += 1
    return fn
