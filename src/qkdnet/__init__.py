"""qkdnet: deterministic simulator and protocol stack for trusted-repeater
quantum-key-distribution networks.

Layers, bottom up: per-link key production (:mod:`qkdnet.links`), mirrored
key stores with one-time-pad discipline and message authentication
(:mod:`qkdnet.q3p`), key-aware link-state routing (:mod:`qkdnet.routing`),
hop-by-hop end-to-end secret transport (:mod:`qkdnet.transport`), the
scenario model, parser, checks and bundled scripts (:mod:`qkdnet.scenarios`),
a discrete-event engine (:mod:`qkdnet.harness`), and a cost planner
(:mod:`qkdnet.planner`).
"""

from .model import (
    DeviceProfile,
    LinkClass,
    LinkSpec,
    NodeKind,
    ParseError,
    Topology,
    ValidationError,
    building_block_preset,
    full_mesh_link_count,
    load_topology,
    network_access_link_count,
    preset,
    serialize_topology,
    vienna_preset,
)
from .links import LinkRuntime, LinkState, key_rate, qualifies_for_deployment
from .q3p import (
    AUTH_RESERVE_DEFAULT,
    Channel,
    InsufficientKey,
    KeyReuseError,
    KeyStore,
    KeyStream,
    Purpose,
    Q3PLink,
    ReplayDetected,
    TagMismatch,
    authenticate,
    otp_decrypt,
    otp_encrypt,
    verify,
)
from .routing import (
    LinkStateAd,
    LinkStateDB,
    NoRoute,
    Path,
    RouteCostParams,
    disjoint_paths,
    shortest_path,
)
from .transport import (
    DeliveryRecord,
    DeliveryStatus,
    aggregate_rate,
)
from .scenarios import (
    BUNDLED,
    Event,
    EventKind,
    Scenario,
    ScenarioError,
    bundled_scenario,
    parse_scenario,
)
from .harness import Engine, MetricsReport, TimeTravel
from .planner import (
    Geometry,
    PlannerParams,
    chain_rate,
    cost_per_bit,
    optimal_link_length,
    relaxed_optimum_km,
    scaling_table,
)

__version__ = "0.1.0"
