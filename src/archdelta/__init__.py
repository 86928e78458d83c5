"""Incremental architecture reconstruction and change-impact analysis for
multi-repository microservice systems."""

from .delta import apply_to_service, compose_deltas, compute_delta, empty_delta
from .documents import (
    deserialize_delta,
    deserialize_ir,
    deserialize_microservice_ir,
    serialize_delta,
    serialize_ir,
    serialize_microservice_ir,
)
from .errors import (
    AmbiguousMarkerError,
    ArchDeltaError,
    DeltaError,
    DocumentError,
    ExtractionError,
    LinkError,
    MergeError,
    RuleBindingError,
    StaleBaselineError,
    UndefinedSimilarityError,
)
from .extractor import (
    ScanWarning,
    discover_services,
    extract_component,
    resolve_call_graph,
    scan_repository,
)
from .history import (
    EvolutionRecord,
    VersionEntry,
    emit_summary,
    emit_timeseries,
    replay,
    write_artifacts,
)
from .impact import ImpactReport, impact_set
from .linker import (
    build_system_ir,
    entity_overlap,
    link_report,
    match_call_to_endpoint,
    uncalled_endpoints,
    unmatched_calls,
)
from .merge import apply_delta, remove_service
from .model import (
    ChangeKind,
    Component,
    ComponentChange,
    ComponentId,
    ComponentType,
    Delta,
    DependencyEdge,
    EdgeKind,
    Endpoint,
    Entity,
    EntityField,
    Method,
    MicroserviceIR,
    Parameter,
    RestCall,
    SystemIR,
    component_id,
    hash_component,
    ir_content_digest,
    make_component,
    system_version_label,
)
from .profiles import MarkerProfile, RemoteCallPattern, default_profile, load_profile
from .rules import (
    Rule,
    Violation,
    builtin_rules,
    detect_invalid_calls,
    detect_repository_method_modifications,
    detect_service_method_modifications,
    detect_uncalled_endpoints,
    evaluate,
    evaluate_many,
    load_rules,
)

__version__ = "0.1.0"
