"""Stable content fingerprints for the certificate store.

Every artifact in :mod:`repro.store` is content-addressed: the key is a
salted SHA-256 over a *canonical material* — a nested tuple built from
the semantic content of programs, actions, predicates, specs, fault
classes and symmetry declarations, never from object identities or
memory addresses.  Two processes (or machines) constructing the same
guarded-command program therefore derive the same key and share
certificates.

Material construction rules:

- **Actions** fingerprint by their :class:`~repro.core.kernels.Plan` IR
  when they are built from one (guard/effect opcodes, exact and
  representation-independent); otherwise by their guard (see
  predicates) and by code-object introspection of the statement
  callable — bytecode, recursively-fingerprinted constants and closure
  cells, names, and defaults.  Restricted actions (``Action.restrict``)
  fingerprint as (base, restriction predicate).  The reads/writes
  frame joins the material: a frame edit is a semantic declaration
  change and must produce a different key.
- **Predicates** fingerprint by name *and* content: the expression for
  predicates built with ``expr=`` (the IR term itself), the callable
  otherwise.  The name appears in verdict descriptions, so two
  predicates with equal content but different names must not share
  verdict artifacts.  A guard/statement action's guard uses the same
  content material.
- **Programs** fingerprint by name, variable (name, domain) pairs in
  declaration order, per-action materials in declaration order, and the
  declared symmetry.
- **Opaque values** fall back to ``repr`` with memory addresses
  scrubbed; anything whose repr is still identity-dependent simply gets
  a cold key (a correctness non-event — the store misses).

The salt folds in the store schema version, the kernel engine version,
and the package version, so artifacts from incompatible builds never
collide.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Iterable, Optional, Tuple

__all__ = [
    "STORE_SCHEMA_VERSION",
    "digest",
    "fingerprint",
    "action_material",
    "predicate_material",
    "program_material",
    "faults_material",
    "spec_material",
    "symmetry_material",
    "states_digest",
]

#: bump to invalidate every artifact ever written by older builds
STORE_SCHEMA_VERSION = 1

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _salt() -> str:
    try:
        from ..core.kernels import ENGINE_VERSION
    except ImportError:  # pragma: no cover - engine version always present
        ENGINE_VERSION = 0
    try:
        from .. import __version__ as package_version
    except ImportError:  # pragma: no cover
        package_version = "0"
    return f"repro-store/{STORE_SCHEMA_VERSION}/{ENGINE_VERSION}/{package_version}"


def digest(tag: str, material: Any) -> str:
    """The content key: salted SHA-256 hex digest of a canonical material."""
    payload = f"{_salt()}|{tag}|{material!r}".encode("utf-8", "surrogatepass")
    return hashlib.sha256(payload).hexdigest()


def fingerprint(value: Any) -> str:
    """Free-standing fingerprint of any supported object."""
    return digest("value", value_material(value))


# -- canonical materials -------------------------------------------------------

def _scrubbed_repr(value: Any) -> Tuple:
    return ("repr", type(value).__module__, type(value).__name__,
            _ADDRESS.sub("", repr(value)))


def _code_material(code) -> Tuple:
    consts = tuple(
        _code_material(c) if hasattr(c, "co_code") else value_material(c)
        for c in code.co_consts
    )
    return ("codeobj", code.co_code, consts, code.co_names,
            code.co_varnames[: code.co_argcount], code.co_freevars)


def callable_material(fn) -> Tuple:
    """Material of a plain callable: bytecode + consts + closure + defaults."""
    code = getattr(fn, "__code__", None)
    if code is None:
        call = getattr(type(fn), "__call__", None)
        code = getattr(call, "__code__", None)
        if code is None:
            return _scrubbed_repr(fn)
        # callable object: its behaviour is __call__'s code plus instance state
        state = tuple(
            sorted(
                (name, value_material(v))
                for name, v in vars(fn).items()
                if not name.startswith("__")
            )
        ) if hasattr(fn, "__dict__") else ()
        return ("callable", type(fn).__name__, _code_material(code), state)
    cells: Tuple = ()
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = tuple(value_material(cell.cell_contents) for cell in closure)
    defaults = tuple(value_material(d) for d in (fn.__defaults__ or ()))
    return ("code", _code_material(code), cells, defaults)


def _evaluation_material(predicate) -> Tuple:
    """What a predicate computes: its IR expression when it has one
    (exact and representation-independent), else its callable."""
    expr = getattr(predicate, "expr", None)
    if expr is not None:
        return ("expr", expr)
    return callable_material(predicate.fn)


def predicate_material(predicate) -> Tuple:
    return ("pred", predicate.name, _evaluation_material(predicate))


def _frame_material(frame) -> Optional[Tuple[str, ...]]:
    if frame is None:
        return None
    return tuple(sorted(frame))


def action_material(action) -> Tuple:
    base = getattr(action, "_base", None)
    restriction = getattr(action, "_restriction", None)
    if base is not None and restriction is not None:
        return ("restricted", action.name, action_material(base),
                predicate_material(restriction))
    plan = getattr(action, "plan", None)
    if plan is not None:
        body: Tuple = ("plan", plan.guard, plan.effects)
    else:
        body = ("interp", _evaluation_material(action.guard),
                callable_material(action.statement))
    return ("action", action.name, body,
            _frame_material(action.reads), _frame_material(action.writes))


def _variable_material(variable) -> Tuple:
    return ("var", variable.name,
            tuple(value_material(v) for v in variable.domain))


def symmetry_material(symmetry) -> Any:
    if symmetry is None:
        return None
    attrs = tuple(
        sorted(
            (name, value_material(v))
            for name, v in vars(symmetry).items()
            if not name.startswith("_") and not callable(v)
        )
    )
    return ("sym", type(symmetry).__name__, attrs)


def program_material(program) -> Tuple:
    return (
        "program",
        program.name,
        tuple(_variable_material(v) for v in program.variables),
        tuple(action_material(a) for a in program.actions),
        symmetry_material(program.symmetry),
    )


def faults_material(faults_or_actions) -> Tuple:
    actions = getattr(faults_or_actions, "actions", faults_or_actions)
    name = getattr(faults_or_actions, "name", None)
    return ("faults", name, tuple(action_material(a) for a in actions))


def _component_material(component) -> Tuple:
    kind = type(component).__name__
    if kind == "StateInvariant":
        return ("stateinv", component.name,
                predicate_material(component.predicate))
    if kind == "LeadsTo":
        return ("leadsto", component.name,
                predicate_material(component.source),
                predicate_material(component.target))
    if kind == "TransitionInvariant":
        predicates = getattr(component, "predicates", None)
        return ("transinv", component.name,
                callable_material(component.relation),
                None if predicates is None else tuple(
                    predicate_material(p) for p in predicates
                ),
                bool(getattr(component, "stutter_true", False)))
    return ("component", kind, component.name)


def spec_material(spec) -> Tuple:
    return ("spec", spec.name,
            tuple(_component_material(c) for c in spec.components))


def value_material(value: Any) -> Any:
    """Generic canonical material of a value, dispatching on shape."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if type(value).__name__ == "EvaluatorMemo":
        # a compiled-evaluator cache in a predicate closure: pure
        # acceleration state, identical in content to the builder that
        # fills it — hashing its entries would drift the key as it warms
        return ("memo",)
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(value_material(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(value_material(v)) for v in value)))
    if isinstance(value, dict):
        return ("map", tuple(sorted(
            (repr(value_material(k)), repr(value_material(v)))
            for k, v in value.items()
        )))
    cls = type(value).__name__
    if cls == "Predicate":
        return predicate_material(value)
    if cls == "Action":
        return action_material(value)
    if cls == "Variable":
        return _variable_material(value)
    if cls == "Program":
        return program_material(value)
    if cls == "FaultClass":
        return faults_material(value)
    if cls == "Spec":
        return spec_material(value)
    if cls == "State":
        return ("state", value.schema.names, tuple(
            value_material(v) for v in value.values_tuple
        ))
    if callable(value):
        return callable_material(value)
    return _scrubbed_repr(value)


def states_digest(states: Iterable) -> str:
    """Streaming digest of an ordered state list (start sets can hold
    tens of thousands of states; the material is hashed incrementally
    rather than materialized)."""
    h = hashlib.sha256(_salt().encode("utf-8"))
    last_names = None
    for state in states:
        names = state.schema.names
        if names is not last_names:
            h.update(repr(names).encode("utf-8", "surrogatepass"))
            last_names = names
        h.update(repr(state.values_tuple).encode("utf-8", "surrogatepass"))
    return h.hexdigest()
