"""Workload family registry, token grammar and trace replay.

Every workload is an instance of a registered :class:`WorkloadFamily` with
typed, documented, bounds-checked parameters (declared as
:class:`repro.configspace.schema.FieldSpec` records, so family parameters get
exactly the config schema's coercion and validation engine), and any
generated trace can be exported to a content-hashed trace file and replayed
bit-identically (see :mod:`repro.workloads.tracefile`).

Token grammar (what ``--workloads`` and :meth:`SweepSpec.create` accept)::

    betw                        a family at its default parameters
    kv-lookup:zipf=1.1          a parameterised instance (``key=value``,
                                comma-separated; values are coerced and
                                bounds-checked against the family schema)
    betw-back                   a co-run mix; halves are matched against the
                                registry longest-prefix-first, so family
                                names may themselves contain dashes
    trace:path/to/file.json     replay a recorded ``repro-trace-v1`` file
    mixes / graph / scientific  group tokens

Tokens are canonicalised (parameters sorted, defaults dropped) so equal
instances hash — and cache — identically, and :func:`workload_fingerprint`
hashes the *fully resolved* parameter set (or the trace file's content), so
a changed family default or an edited trace file can never alias a stale
cache entry.

Registered families:

* the sixteen Table II applications, each exposing every
  :class:`~repro.workloads.trace.WorkloadSpec` knob as a parameter
  (``betw:zipf_alpha=1.0`` is a valid workload), and
* ``kv-lookup``, Zipf point-reads over a keyspace with a GET/PUT ratio
  knob, which drives the write path (flash-register writes, log-page
  programs, helper GC) that the read-heavy Table II mixes leave idle.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.configspace.fingerprint import fingerprint
from repro.configspace.schema import FieldSpec, coerce_value
from repro.workloads.suites import (
    ALL_WORKLOADS,
    GRAPH_WORKLOADS,
    MULTI_APP_MIXES,
    SCIENTIFIC_WORKLOADS,
    mix_name,
)
from repro.workloads.trace import TraceKnobs, WorkloadSpec, WorkloadTrace

#: Prefix of trace-replay tokens: ``trace:<path>`` replays a recorded
#: ``repro-trace-v1`` file (see :mod:`repro.workloads.tracefile`).
TRACE_TOKEN_PREFIX = "trace:"

#: Group tokens the sweep vocabulary expands (besides family names).
GROUP_TOKENS = ("mixes", "graph", "scientific")


#: A family builder: fully resolved parameters + trace knobs -> trace.
FamilyBuilder = Callable[[Dict[str, object], TraceKnobs], WorkloadTrace]


def family_param(
    family: str,
    name: str,
    default: object,
    unit: str,
    doc: str,
    *,
    choices: Optional[Tuple[object, ...]] = None,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> FieldSpec:
    """Declare one typed family parameter (a standalone :class:`FieldSpec`).

    Reuses the configspace field machinery, so the parameter gets CLI-string
    coercion, precise type errors, bounds and choices for free, plus a
    ``describe()`` card for ``repro workloads --explain``.
    """
    return FieldSpec(
        path=f"{family}:{name}",
        group=family,
        name=name,
        owner=f"workload family {family!r}",
        type=type(default),
        default=default,
        unit=unit,
        doc=doc,
        choices=tuple(choices) if choices is not None else None,
        minimum=minimum,
        maximum=maximum,
    )


@dataclass(frozen=True)
class WorkloadFamily:
    """One registered, parametric workload generator."""

    name: str
    suite: str
    description: str
    params: Tuple[FieldSpec, ...]
    builder: FamilyBuilder

    def param_names(self) -> List[str]:
        return [param.name for param in self.params]

    def param(self, name: str) -> FieldSpec:
        for param in self.params:
            if param.name == name:
                return param
        raise ValueError(
            f"workload family {self.name!r} has no parameter {name!r}"
            f"{_did_you_mean(name, self.param_names(), cutoff=0.5)}"
            f" (parameters: {', '.join(self.param_names()) or 'none'})")

    def defaults(self) -> Dict[str, object]:
        return {param.name: param.default for param in self.params}

    def resolve_params(self, given: Mapping[str, object]) -> Dict[str, object]:
        """The full parameter mapping: defaults overlaid with coerced ``given``.

        Unknown names, type mismatches and out-of-range values raise with the
        same precise messages config overrides get.
        """
        resolved = self.defaults()
        for name, value in given.items():
            resolved[name] = coerce_value(self.param(name), value)
        return resolved

    def describe(self) -> str:
        """Multi-line family card (``repro workloads --explain``)."""
        lines = [
            f"family:   {self.name}",
            f"suite:    {self.suite}",
            f"          {self.description}",
        ]
        if not self.params:
            lines.append("params:   (none)")
        for param in self.params:
            bounds = ""
            if param.minimum is not None or param.maximum is not None:
                low = "" if param.minimum is None else f"{param.minimum} <= "
                high = "" if param.maximum is None else f" <= {param.maximum}"
                bounds = f"  [{low}{param.name}{high}]"
            if param.choices is not None:
                bounds = f"  [{' | '.join(map(str, param.choices))}]"
            lines.append(
                f"  {param.name:22s} {param.type.__name__:5s} "
                f"default {param.default!r} ({param.unit}){bounds}")
            lines.append(f"  {'':22s} {param.doc}")
        return "\n".join(lines)


#: The registry: family name -> :class:`WorkloadFamily`.
WORKLOAD_FAMILIES: Dict[str, WorkloadFamily] = {}


def register_family(family: WorkloadFamily) -> WorkloadFamily:
    """Add a family to the registry (raises on name clashes / bad names)."""
    for forbidden in (":", "=", ",", "/", " "):
        if forbidden in family.name:
            raise ValueError(
                f"workload family name {family.name!r} must not contain "
                f"{forbidden!r} (reserved by the token grammar)")
    if family.name in GROUP_TOKENS:
        raise ValueError(
            f"workload family name {family.name!r} collides with a group token")
    if family.name in WORKLOAD_FAMILIES:
        raise ValueError(f"workload family {family.name!r} is already registered")
    WORKLOAD_FAMILIES[family.name] = family
    return family


def family_names() -> List[str]:
    return sorted(WORKLOAD_FAMILIES)


def _did_you_mean(name: str, candidates: Iterable[str], cutoff: float = 0.6) -> str:
    matches = difflib.get_close_matches(name, list(candidates), n=3, cutoff=cutoff)
    return f"; did you mean {' or '.join(matches)}?" if matches else ""


def family_by_name(name: str) -> WorkloadFamily:
    """Look up a registered family, with a "did you mean" hint on typos."""
    family = WORKLOAD_FAMILIES.get(name)
    if family is None:
        raise KeyError(
            f"unknown workload family {name!r}"
            f"{_did_you_mean(name, WORKLOAD_FAMILIES)}"
            f" (known: {', '.join(family_names())})")
    return family


# ---------------------------------------------------------------------------
# Token parsing and canonicalisation
# ---------------------------------------------------------------------------


def _format_param_value(value: object) -> str:
    """Canonical token text for one coerced parameter value."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_param_suffix(family: WorkloadFamily, body: str) -> Dict[str, object]:
    """Parse ``k=v,k2=v2`` against a family's parameter schema."""
    params: Dict[str, object] = {}
    for pair in body.split(","):
        name, equals, raw = pair.partition("=")
        if not equals or not name or not raw:
            raise ValueError(
                f"malformed parameter {pair!r} in workload token "
                f"{family.name}:{body!r} (expected name=value)")
        params[name.strip()] = raw.strip()
    return family.resolve_params(params)


@dataclass(frozen=True)
class ResolvedWorkload:
    """One resolved single-workload token (family instance or trace file)."""

    #: The canonical token: parameters sorted, defaults dropped.
    token: str
    family: Optional[WorkloadFamily] = None
    #: Fully resolved parameters — defaults included — sorted by name.
    params: Tuple[Tuple[str, object], ...] = ()
    trace_path: Optional[str] = None

    def param_mapping(self) -> Dict[str, object]:
        return dict(self.params)

    def build(self, knobs: TraceKnobs) -> WorkloadTrace:
        """This workload's trace: the family's, or the file's as recorded.

        A replayed file cannot be reshaped by the trace knobs, so when it
        carries its generation knobs they must agree with the requested ones
        (seed excluded: the sweep derives it from the ``trace:`` token, not
        the recorded one).  Otherwise the sweep's descriptor, cache key and
        printed table would silently label recorded data with knobs it was
        never generated with.
        """
        if self.trace_path is None:
            return self.family.builder(self.param_mapping(), knobs)
        from repro.workloads.tracefile import read_trace_file

        if knobs.address_space_offset:
            raise ValueError(
                "a replayed trace file carries fixed addresses and cannot "
                "be relocated (address_space_offset must be 0)")
        loaded = read_trace_file(self.trace_path)
        recorded = loaded.knobs
        mismatched = {
            name: (recorded[name], getattr(knobs, name))
            for name in ("scale", "num_sms", "warps_per_sm",
                         "memory_instructions_per_warp")
            if name in recorded and recorded[name] != getattr(knobs, name)
        }
        if mismatched:
            detail = ", ".join(
                f"{name}: recorded {rec!r} != requested {req!r}"
                for name, (rec, req) in sorted(mismatched.items()))
            raise ValueError(
                f"trace file {self.trace_path} was recorded with different "
                f"trace knobs ({detail}); rerun the sweep with the recorded "
                f"knobs or re-record the trace")
        return loaded.trace

    def fingerprint(self) -> str:
        """Content hash over everything that determines the generated trace.

        Family instances hash the family name plus the *full* resolved
        parameter mapping, so a changed family default changes the
        fingerprint even though the canonical token stays the same; trace
        files hash the file's bytes, so an edited file misses the cache.
        """
        if self.trace_path is not None:
            from repro.workloads.tracefile import trace_file_fingerprint

            return fingerprint(
                ["trace-file", trace_file_fingerprint(self.trace_path)])
        return fingerprint(
            ["workload-family", self.family.name,
             [[name, value] for name, value in self.params]])


def resolve_workload(token: str) -> ResolvedWorkload:
    """Resolve one *single-workload* token (no mixes; see
    :func:`parse_workload_token` for the full grammar)."""
    if token.startswith(TRACE_TOKEN_PREFIX):
        path = token[len(TRACE_TOKEN_PREFIX):]
        if not path:
            raise ValueError(
                f"malformed workload token {token!r} (expected trace:<path>)")
        # Probe the file now (fingerprinting stats + hashes it, memoized),
        # so a missing/unreadable trace file fails at spec creation like any
        # other bad token — in milliseconds, not after N cells.
        from repro.workloads.tracefile import trace_file_fingerprint

        trace_file_fingerprint(path)
        return ResolvedWorkload(token=token, trace_path=path)
    name, colon, body = token.partition(":")
    family = family_by_name(name)
    if colon and not body:
        raise ValueError(
            f"malformed workload token {token!r} (expected "
            f"{name}:param=value,...)")
    given = _parse_param_suffix(family, body) if body else family.defaults()
    resolved = tuple(sorted(given.items()))
    non_default = [
        (param_name, value) for param_name, value in resolved
        if value != family.param(param_name).default
    ]
    canonical = family.name
    if non_default:
        canonical += ":" + ",".join(
            f"{param_name}={_format_param_value(value)}"
            for param_name, value in non_default)
    return ResolvedWorkload(token=canonical, family=family, params=resolved)


def parse_workload_token(token: str) -> Tuple[str, Optional[str]]:
    """Split a workload token into ``(app, co_runner)`` and validate it.

    Single tokens (family names, parameterised instances, ``trace:`` files)
    return ``(token, None)``.  Mix tokens are matched against the registry
    longest-prefix-first, so family names containing dashes
    (``kv-lookup-back`` = ``kv-lookup`` co-run with ``back``) parse
    correctly — never by naive ``split("-")``.  Parameterised and ``trace:``
    tokens cannot appear inside a mix.

    ``trace:`` tokens are only *classified* here (no file I/O), so pivoting
    a finished result whose trace file has since moved still works;
    :func:`resolve_workload` — and therefore spec creation via
    :func:`resolve_workload_tokens` — probes the file.
    """
    if token.startswith(TRACE_TOKEN_PREFIX):
        if not token[len(TRACE_TOKEN_PREFIX):]:
            raise ValueError(
                f"malformed workload token {token!r} (expected trace:<path>)")
        return token, None
    if ":" in token:
        resolve_workload(token)
        return token, None
    if token in WORKLOAD_FAMILIES:
        return token, None
    dash_positions = [i for i, ch in enumerate(token) if ch == "-"]
    for position in reversed(dash_positions):  # longest known prefix wins
        left, right = token[:position], token[position + 1:]
        if left in WORKLOAD_FAMILIES and right in WORKLOAD_FAMILIES:
            return left, right
    raise KeyError(
        f"unknown workload {token!r}"
        f"{_did_you_mean(token, WORKLOAD_FAMILIES)}"
        f" (single families, 'read-write' mixes, 'family:param=value,...' "
        f"instances, 'trace:<path>' replays, or a group token "
        f"{'/'.join(GROUP_TOKENS)})")


def canonicalize_token(token: str) -> str:
    """The canonical form of a token (parameters sorted, defaults dropped).

    Fully resolves the token — for ``trace:`` files that includes reading
    and verifying the file — so spec creation fails fast on anything
    unrunnable: a missing, corrupted or malformed trace file raises
    :class:`~repro.workloads.tracefile.TraceFileError` before any cell runs.
    """
    read_app, write_app = parse_workload_token(token)
    if write_app is None:
        resolved = resolve_workload(read_app)
        if resolved.trace_path is not None:
            from repro.workloads.tracefile import read_trace_file

            read_trace_file(resolved.trace_path)
        return resolved.token
    return mix_name(read_app, write_app)


def resolve_workload_tokens(tokens: Iterable[str]) -> List[str]:
    """Expand group tokens, canonicalise and validate, preserving order.

    ``"mixes"`` expands to the twelve evaluation mixes, ``"graph"`` /
    ``"scientific"`` to their Table II applications; any other token goes
    through :func:`parse_workload_token`.  Every token is validated here —
    *before* any sweep cell runs — so a typo fails in milliseconds with a
    "did you mean" hint, not after N cells.
    """
    resolved: List[str] = []
    for token in tokens:
        if token == "mixes":
            expansion = [mix_name(r, w) for r, w in MULTI_APP_MIXES]
        elif token == "graph":
            expansion = sorted(GRAPH_WORKLOADS)
        elif token == "scientific":
            expansion = sorted(SCIENTIFIC_WORKLOADS)
        else:
            expansion = [canonicalize_token(token)]
        for name in expansion:
            if name not in resolved:
                resolved.append(name)
    return resolved


#: Per-process fingerprint memo for *family* tokens only.  Family catalogues
#: are fixed for the life of the process, so token -> fingerprint is a pure
#: function; ``trace:`` tokens are never cached because the file's bytes can
#: change on disk between calls and the fingerprint must notice.
_FAMILY_FINGERPRINT_CACHE: Dict[str, str] = {}


def workload_fingerprint(token: str) -> str:
    """Content hash of the *resolved* workload behind a token.

    Incorporated into :meth:`SweepCell.descriptor` (hence the result-cache
    key) and :meth:`SweepCell.trace_key` (the per-worker trace memo), so two
    cells share a cache entry only when their workloads resolve to the same
    parameters — and a trace file shares nothing once its bytes change.
    """
    cacheable = TRACE_TOKEN_PREFIX not in token
    if cacheable:
        cached = _FAMILY_FINGERPRINT_CACHE.get(token)
        if cached is not None:
            return cached
    read_app, write_app = parse_workload_token(token)
    if write_app is None:
        result = resolve_workload(read_app).fingerprint()
    else:
        result = fingerprint([
            "workload-mix",
            resolve_workload(read_app).fingerprint(),
            resolve_workload(write_app).fingerprint(),
        ])
    if cacheable:
        _FAMILY_FINGERPRINT_CACHE[token] = result
    return result


def build_token_trace(token: str, knobs: TraceKnobs) -> WorkloadTrace:
    """Generate (or replay) the trace of any workload token.

    Family tokens run their family's builder, ``trace:`` tokens replay the
    file (:meth:`ResolvedWorkload.build`), and ``read-write`` tokens build
    the paper's co-run mix (:func:`repro.workloads.multiapp.build_mix`).
    The trace is a pure function of the token's resolved workload and
    ``knobs``, which is what the sweep's trace memo keys on.  It is labelled
    with ``token``: a mix keeps its read half's spec and a parametric token
    its family's, so the spec's name alone does not name the cell.
    """
    read_app, write_app = parse_workload_token(token)
    if write_app is None:
        trace = resolve_workload(token).build(knobs)
    else:
        from repro.workloads.multiapp import build_mix

        trace = build_mix(read_app, write_app, knobs).combined
    trace.label = token
    return trace


# ---------------------------------------------------------------------------
# Catalogue lines (the workload analogue of ``repro config --golden``)
# ---------------------------------------------------------------------------


def catalog_lines() -> List[str]:
    """The drift-gate golden content: one line per family and per parameter."""
    lines = []
    for name in family_names():
        family = WORKLOAD_FAMILIES[name]
        lines.append(
            f"{name}\t{family.suite}\t{len(family.params)} params"
            f"\t{family.description}")
        for param in family.params:
            lines.append(
                f"{name}:{param.name}\t{param.type.__name__}"
                f"\t{param.default!r}\t{param.unit}\t{param.doc}")
    return lines


# ---------------------------------------------------------------------------
# Table II families: every catalogue application, every spec knob a parameter
# ---------------------------------------------------------------------------


def _spec_params(family: str, spec: WorkloadSpec) -> Tuple[FieldSpec, ...]:
    return (
        family_param(family, "read_ratio", spec.read_ratio, "ratio",
                     "Read share of memory instructions (Table II).",
                     minimum=0.0, maximum=1.0),
        family_param(family, "kernels", spec.kernels, "count",
                     "Static kernel count; sizes the PC space the predictor "
                     "indexes (Table II).", minimum=1),
        family_param(family, "read_reaccess", spec.read_reaccess, "reads/page",
                     "Mean re-reads per distinct read page (Fig. 5b).",
                     minimum=0.0),
        family_param(family, "write_redundancy", spec.write_redundancy,
                     "writes/page",
                     "Mean writes per distinct written page (Fig. 5c).",
                     minimum=0.0),
        family_param(family, "sequential_fraction", spec.sequential_fraction,
                     "ratio",
                     "Fraction of accesses that stream sequentially "
                     "(CSR scans vs frontier chasing).",
                     minimum=0.0, maximum=1.0),
        family_param(family, "compute_per_memory", spec.compute_per_memory,
                     "insts",
                     "Arithmetic instructions per memory instruction.",
                     minimum=0),
        family_param(family, "footprint_pages", spec.footprint_pages, "pages",
                     "Footprint in 4 KB pages at scale 1.0.", minimum=1),
        family_param(family, "zipf_alpha", spec.zipf_alpha, "alpha",
                     "Zipf skew of the page popularity distribution.",
                     minimum=0.0, maximum=4.0),
    )


def _spec_builder(make_spec: Callable[[Dict[str, object]], WorkloadSpec]) -> FamilyBuilder:
    """A builder that generates the WorkloadSpec derived from the parameters."""

    def build(params: Dict[str, object], knobs: TraceKnobs) -> WorkloadTrace:
        from repro.workloads.generators import generate_workload

        return generate_workload(make_spec(params), knobs)

    return build


for _name, _spec in ALL_WORKLOADS.items():
    register_family(WorkloadFamily(
        name=_name,
        suite=_spec.suite,
        description=(f"Table II {_spec.suite} application {_name!r} "
                     f"(read ratio {_spec.read_ratio}, "
                     f"{_spec.kernels} kernels)."),
        params=_spec_params(_name, _spec),
        builder=_spec_builder(lambda params, spec=_spec: replace(spec, **params)),
    ))


# ---------------------------------------------------------------------------
# The key-value family: the write path's parametric workload
# ---------------------------------------------------------------------------


def _kv_lookup_spec(params: Dict[str, object]) -> WorkloadSpec:
    return WorkloadSpec(
        name="kv-lookup",
        suite="kv",
        read_ratio=params["get_ratio"],
        kernels=2,
        read_reaccess=params["reuse"],
        write_redundancy=max(1.0, params["reuse"] / 2.0),
        sequential_fraction=0.05,
        compute_per_memory=1,
        footprint_pages=params["keyspace_pages"],
        zipf_alpha=params["zipf"],
    )


register_family(WorkloadFamily(
    name="kv-lookup",
    suite="parametric",
    description=("Zipf point-reads over a huge keyspace with a GET/PUT "
                 "ratio knob (key-value store serving)."),
    params=(
        family_param("kv-lookup", "get_ratio", 0.95, "ratio",
                     "GET share of operations (PUTs are the rest).",
                     minimum=0.0, maximum=1.0),
        family_param("kv-lookup", "zipf", 0.99, "alpha",
                     "Zipf skew of key popularity (YCSB-style).",
                     minimum=0.0, maximum=4.0),
        family_param("kv-lookup", "keyspace_pages", 262144, "pages",
                     "Keyspace footprint in 4 KB pages at scale 1.0.",
                     minimum=16),
        family_param("kv-lookup", "reuse", 4.0, "reads/page",
                     "Mean re-reads per hot page (cacheability floor).",
                     minimum=1.0),
    ),
    builder=_spec_builder(_kv_lookup_spec),
))
