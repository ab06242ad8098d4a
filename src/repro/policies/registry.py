"""The central policy registry: one API for every pluggable decision point.

The paper's core manageability claim is that every VM-management decision
(dispatching, placement, LC assignment, relocation, reconfiguration) is a
pluggable policy.  This module is where that claim becomes mechanical: a
policy implementation registers itself once with :func:`register_policy` and
is from then on constructible by ``(kind, name)`` through :func:`make_policy`,
enumerable through :func:`policy_names` / :func:`iter_policy_specs`, and
introspectable through its :class:`PolicySpec` (parameter schema derived from
the factory signature, description derived from the docstring).

No call site outside :mod:`repro.policies` should ever compare policy names
as strings; the registry is the single source of truth.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Sentinel for "parameter has no default" (the parameter is required).
_REQUIRED = object()

#: Parameter names that carry live runtime objects wired in by the deployment
#: (thresholds come from ``HierarchyConfig.thresholds``, random generators
#: from the run seed).  They are constructor parameters, not declarative
#: knobs: scenario/config ``policies`` entries may not set them.
RUNTIME_PARAMS = frozenset({"thresholds", "rng"})

#: kind -> name -> PolicySpec
_REGISTRY: Dict[str, Dict[str, "PolicySpec"]] = {}


def _json_safe(value: object) -> object:
    """Best-effort JSON-safe rendering of a parameter default."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


@dataclass(frozen=True)
class ParamSpec:
    """One constructor parameter of a registered policy."""

    name: str
    #: The declared default; :data:`_REQUIRED` when the parameter is mandatory.
    default: object = _REQUIRED
    #: True for parameters wired in at runtime (see :data:`RUNTIME_PARAMS`);
    #: these cannot be set from declarative ``policies`` blocks.
    runtime: bool = False

    @property
    def required(self) -> bool:
        """True when the parameter has no default."""
        return self.default is _REQUIRED

    def describe(self) -> dict:
        """JSON-safe description used by ``repro-sim policy describe``."""
        info: dict = {"name": self.name, "required": self.required}
        if not self.required:
            info["default"] = _json_safe(self.default)
        if self.runtime:
            info["runtime"] = True
        return info


@dataclass(frozen=True)
class PolicySpec:
    """Introspectable metadata + factory for one registered policy."""

    kind: str
    name: str
    factory: Callable[..., object]
    description: str
    params: Tuple[ParamSpec, ...]

    def param_names(self) -> List[str]:
        """Names of the declared constructor parameters."""
        return [param.name for param in self.params]

    def defaults(self) -> Dict[str, object]:
        """The declared defaults (required parameters are omitted)."""
        return {param.name: param.default for param in self.params if not param.required}

    def build(self, **params) -> object:
        """Construct the policy, validating parameter names against the schema."""
        unknown = set(params) - set(self.param_names())
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for {self.kind} policy "
                f"{self.name!r}; valid parameters: {self.param_names()}"
            )
        missing = [
            param.name for param in self.params if param.required and param.name not in params
        ]
        if missing:
            raise ValueError(
                f"{self.kind} policy {self.name!r} requires parameter(s) {missing}"
            )
        return self.factory(**params)

    def describe(self) -> dict:
        """JSON-safe description used by the CLI and the docs."""
        return {
            "kind": self.kind,
            "name": self.name,
            "description": self.description,
            "params": [param.describe() for param in self.params],
        }


def _signature_params(factory: Callable) -> Tuple[ParamSpec, ...]:
    """Derive the parameter schema from a class ``__init__`` or plain factory.

    Every parameter must be named: a factory taking ``**kwargs`` could not
    have its parameter names validated, so registering one is an error.
    """
    if inspect.isclass(factory):
        if factory.__init__ is object.__init__:  # no constructor parameters at all
            return ()
        target = factory.__init__  # type: ignore[misc]
    else:
        target = factory
    try:
        signature = inspect.signature(target)
    except (TypeError, ValueError):  # e.g. object.__init__ on a no-arg class
        return ()
    params: List[ParamSpec] = []
    for parameter in signature.parameters.values():
        if parameter.name == "self":
            continue
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            raise ValueError(
                f"policy factory {factory!r} takes **{parameter.name}; name its parameters"
            )
        default = _REQUIRED if parameter.default is inspect.Parameter.empty else parameter.default
        params.append(
            ParamSpec(
                name=parameter.name,
                default=default,
                runtime=parameter.name in RUNTIME_PARAMS,
            )
        )
    return tuple(params)


def _first_doc_line(factory: Callable) -> str:
    doc = inspect.getdoc(factory) or ""
    return doc.splitlines()[0].strip() if doc else ""


def register_policy(
    kind: str, name: Optional[str] = None, description: Optional[str] = None
) -> Callable:
    """Class/function decorator registering a policy factory under ``(kind, name)``.

    ``name`` defaults to the factory's ``name`` class attribute (policies
    already carry one); ``description`` defaults to the first docstring line.
    Registering the same ``(kind, name)`` twice is an error.
    """

    def decorator(factory: Callable) -> Callable:
        policy_name = name or getattr(factory, "name", None)
        if not policy_name or not isinstance(policy_name, str):
            raise ValueError(
                f"policy factory {factory!r} needs an explicit name or a 'name' attribute"
            )
        # Lookups lower-case the requested name (historical factory behaviour),
        # so registered names must be lower-case to stay reachable.
        policy_name = policy_name.lower()
        spec = PolicySpec(
            kind=str(kind),
            name=policy_name,
            factory=factory,
            description=description or _first_doc_line(factory),
            params=_signature_params(factory),
        )
        bucket = _REGISTRY.setdefault(spec.kind, {})
        if spec.name in bucket:
            raise ValueError(f"{spec.kind} policy {spec.name!r} already registered")
        bucket[spec.name] = spec
        return factory

    return decorator


def policy_kinds() -> List[str]:
    """Sorted names of every policy kind with at least one registration."""
    return sorted(_REGISTRY)


def policy_names(kind: str) -> List[str]:
    """Sorted names registered under ``kind``; raises for unknown kinds."""
    return sorted(_kind_bucket(kind))


def _kind_bucket(kind: str) -> Dict[str, PolicySpec]:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown policy kind {kind!r}; choose from {policy_kinds()}"
        ) from None


def get_policy_spec(kind: str, name: str) -> PolicySpec:
    """The :class:`PolicySpec` for ``(kind, name)``; unknown names list the valid ones."""
    bucket = _kind_bucket(kind)
    try:
        return bucket[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown {kind} policy {name!r}; choose from {sorted(bucket)}"
        ) from None


def make_policy(kind: str, name: str, **params) -> object:
    """Construct a registered policy by kind and name.

    Unknown kinds, names and parameter names all raise :class:`ValueError`
    messages that enumerate the valid alternatives (the registry makes this
    free for every policy kind at once).
    """
    return get_policy_spec(kind, name).build(**params)


def validate_policy_selection(kind: str, entry: object) -> PolicySpec:
    """Validate one declarative ``{kind: {"name": ..., **params}}`` entry.

    Shared by :class:`~repro.hierarchy.config.HierarchyConfig` and
    :class:`~repro.scenarios.spec.ScenarioSpec` so both fail fast with the
    same messages (unknown kinds/names/parameters list the alternatives).
    Returns the resolved :class:`PolicySpec`.
    """
    if not isinstance(entry, dict) or "name" not in entry:
        raise ValueError(
            f"policies[{kind!r}] must be a {{'name': ..., **params}} dictionary, got {entry!r}"
        )
    spec = get_policy_spec(kind, str(entry["name"]))
    params = set(entry) - {"name"}
    unknown = params - set(spec.param_names())
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {kind} policy "
            f"{spec.name!r}; valid parameters: {spec.param_names()}"
        )
    runtime = params & {param.name for param in spec.params if param.runtime}
    if runtime:
        raise ValueError(
            f"parameter(s) {sorted(runtime)} of {kind} policy {spec.name!r} are "
            "wired in at runtime (thresholds from the deployment configuration, "
            "random streams from the run seed) and cannot be set declaratively"
        )
    return spec


def merge_policy_selections(
    policies: Dict[str, Dict[str, object]], overrides: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Merge declarative policy overrides over an existing ``policies`` block.

    A *bare* override entry (``{"name": ...}`` only) selecting the name
    already in use keeps the existing entry's tuned parameters; any other
    entry replaces the block wholesale.  The one merge rule shared by the CLI
    (``scenario run --policy``, ``sweep run --policy``) and sweep expansion.
    """
    merged = {kind: dict(entry) for kind, entry in policies.items()}
    for kind, override in overrides.items():
        existing = merged.get(kind)
        if (
            existing is not None
            and existing.get("name") == override.get("name")
            and set(override) == {"name"}
        ):
            continue
        merged[kind] = dict(override)
    return merged


def iter_policy_specs(kind: Optional[str] = None) -> Iterator[PolicySpec]:
    """All registered specs (optionally of one kind), in (kind, name) order."""
    kinds = [kind] if kind is not None else policy_kinds()
    for each_kind in kinds:
        bucket = _kind_bucket(each_kind)
        for name in sorted(bucket):
            yield bucket[name]


#: Method names that constitute a policy's decision surface.  Every registered
#: policy exposes its decision through one of these.
DECISION_METHODS = ("decide", "plan", "choose")


def instrument_policy(policy: object, observe: Callable[[str, float], None]) -> object:
    """Time every decision call of ``policy`` with ``observe(method, seconds)``.

    Wrapping is per-instance: the decision methods are shadowed by timed
    closures on the instance, so the class and its other instances stay
    untouched and plain attribute access (``policy.thresholds`` mutation by
    runtime control, for example) keeps working.  The wall-clock sample is
    reported even when the decision raises, and timing never alters the
    decision result -- determinism is untouched by construction.
    """
    for method_name in DECISION_METHODS:
        method = getattr(policy, method_name, None)
        if not callable(method):
            continue

        def timed(*args, _method=method, _name=method_name, **kwargs):
            begin = perf_counter()
            try:
                return _method(*args, **kwargs)
            finally:
                observe(_name, perf_counter() - begin)

        timed.__name__ = method_name
        setattr(policy, method_name, timed)
    return policy
