// Package tinyleo is the public API of this TinyLEO reproduction — a
// software-defined small-scale LEO satellite network for global-scale
// demands (SIGCOMM 2025). It re-exports the toolkit's three pillars:
//
//   - Offline network sparsification (§4.1): build an Earth-repeat
//     ground-track library (BuildLibrary), synthesize demand scenarios
//     (StarlinkCustomersDemand and friends), and run the compressed-
//     sensing matching pursuit (Sparsify) to plan a sparse constellation.
//   - Control plane (§4.2): declare geographic topology and routing
//     intents (NewTopology, policy route compilers) and compile them each
//     slot into satellite topologies with the orbital MPC (NewController).
//   - Data plane (§4.3): emulate geographic segment anycast forwarding
//     (NewNetwork, NewGeoPacket) with local failover and ring fallback,
//     or run the southbound control protocol over real TCP
//     (ListenController, DialAgent).
//
// The examples/ directory exercises this surface end to end; DESIGN.md
// maps every paper system to its implementing package; EXPERIMENTS.md
// records reproduced results for every table and figure.
package tinyleo

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/orbit"
	"repro/internal/southbound"
	"repro/internal/texture"
)

// ---- Runtime telemetry (internal/obs) ----

// TelemetryRegistry is a concurrency-safe registry of counters, gauges,
// and histograms.
type TelemetryRegistry = obs.Registry

// TelemetryServer is a running /metrics + /healthz + /trace HTTP endpoint.
type TelemetryServer = obs.Server

// Telemetry returns the process-wide registry that internal/mpc,
// internal/core, internal/dataplane, and the southbound agent write to.
// It is disabled (zero-cost) until EnableTelemetry.
func Telemetry() *TelemetryRegistry { return obs.Default() }

// EnableTelemetry turns on the default registry so instrumented hot paths
// start recording.
func EnableTelemetry() { obs.Enable() }

// EnableTraceSpans turns on span tracing with a ring buffer of the given
// capacity (0 = default). Spans are served on /trace.
func EnableTraceSpans(capacity int) { obs.EnableTracing(capacity) }

// ServeTelemetry serves Prometheus text, JSON snapshots, health, and span
// traces over HTTP for the given registries (e.g. Telemetry() plus a
// SouthboundController's Metrics()).
func ServeTelemetry(addr string, regs ...*TelemetryRegistry) (*TelemetryServer, error) {
	return obs.Serve(addr, regs...)
}

// ---- Flight recorder and SLOs (internal/obs/flightrec) ----

// FlightRecorderOptions configures the constellation flight recorder:
// SLO rules, and extra registries for SLO evaluation.
type FlightRecorderOptions = flightrec.Options

// FlightRecording is a loaded or captured recording: the process's spans
// and events, per-slot topology states, and final SLO status.
type FlightRecording = flightrec.Recording

// FlightEvent is one record of the process's trace ring: a span, or —
// with Instant set — a structured event named "component.type".
type FlightEvent = obs.Event

// SLORule is one declarative service-level objective over registry
// metrics or event windows, e.g. availability ≥ 0.95.
type SLORule = flightrec.Rule

// SLOStatus is the latest evaluation of one rule.
type SLOStatus = flightrec.RuleStatus

// EnableFlightRecorder turns on the process-wide flight recorder (and the
// span tracer whose ring it shares, reset). Once enabled, the MPC,
// southbound, data-plane, and sparsifier emit typed events and per-slot
// snapshots; the events appear on /trace beside the spans and obs.Serve
// endpoints gain a /slo route.
func EnableFlightRecorder(o FlightRecorderOptions) { flightrec.Enable(o) }

// DisableFlightRecorder stops recording events and slots.
func DisableFlightRecorder() { flightrec.Disable() }

// SaveFlightRecording writes the current recording (gzip JSONL when path
// ends in .gz) and returns a human-readable summary.
func SaveFlightRecording(path string) (string, error) {
	return flightrec.SaveRecording(path)
}

// ReadFlightRecording loads a recording written by SaveFlightRecording,
// sniffing gzip automatically.
func ReadFlightRecording(path string) (*FlightRecording, error) {
	return flightrec.ReadRecordingFile(path)
}

// ParseSLORules parses a comma-separated rule spec such as
// "availability>=0.95,deficit_ratio<=0.1,repair_p99<=0.2".
func ParseSLORules(spec string) ([]SLORule, error) { return flightrec.ParseRules(spec) }

// DefaultSLORules returns the paper-derived default objectives.
func DefaultSLORules() []SLORule { return flightrec.DefaultRules() }

// ---- Geography ----

// LatLon is a geodetic coordinate in degrees.
type LatLon = geom.LatLon

// Grid partitions the Earth into geographic cells (default 4° ⇒ 4,050
// cells, the paper's m).
type Grid = geo.Grid

// NewGrid creates a grid with cells of cellDeg degrees (must divide 180).
func NewGrid(cellDeg float64) (*Grid, error) { return geo.NewGrid(cellDeg) }

// DefaultGrid returns the paper's 4° grid.
func DefaultGrid() *Grid { return geo.DefaultGrid() }

// ---- Orbits and the texture library (§4.1) ----

// OrbitElements describes one circular orbit slot.
type OrbitElements = orbit.Elements

// RepeatSpec is an Earth-repeat orbit family: q revolutions in p sidereal
// days (Equation 1).
type RepeatSpec = orbit.RepeatSpec

// EnumerateRepeatSpecs lists reduced (p,q) repeat families whose circular
// altitude falls in [minAlt, maxAlt] meters.
func EnumerateRepeatSpecs(maxP int, minAlt, maxAlt float64) []RepeatSpec {
	return orbit.EnumerateRepeatSpecs(maxP, minAlt, maxAlt)
}

// LibraryConfig parameterizes texture-library generation.
type LibraryConfig = texture.Config

// Library is the over-complete candidate ground-track set with
// per-(slot, cell) coverage.
type Library = texture.Library

// BuildLibrary enumerates candidates and computes coverage in parallel.
func BuildLibrary(cfg LibraryConfig) (*Library, error) { return texture.Build(cfg) }

// ---- Demand scenarios (Figure 13) ----

// Demand is a spatiotemporal demand field in satellite units.
type Demand = demand.Demand

// ScenarioOptions configures demand synthesis.
type ScenarioOptions = demand.ScenarioOptions

// DiurnalModel is the Figure-3b local-time activity model.
type DiurnalModel = demand.DiurnalModel

// StarlinkCustomersDemand synthesizes the global customer scenario (13a).
func StarlinkCustomersDemand(opt ScenarioOptions) *Demand { return demand.StarlinkCustomers(opt) }

// InternetBackboneDemand synthesizes the submarine-cable backup scenario (13b).
func InternetBackboneDemand(opt ScenarioOptions) *Demand { return demand.InternetBackbone(opt) }

// LatinAmericaDemand synthesizes the regional ISP scenario (13c).
func LatinAmericaDemand(opt ScenarioOptions) *Demand { return demand.LatinAmerica(opt) }

// ---- Sparsification (the core contribution, Algorithm 1) ----

// SparsifyProblem describes one run of the sparse spatiotemporal matching
// pursuit.
type SparsifyProblem = core.Problem

// SparsifyResult is the planned sparse constellation.
type SparsifyResult = core.Result

// Sparsify runs Algorithm 1: select Earth-repeat tracks and satellite
// counts covering the demand at availability ε with minimal satellites.
func Sparsify(p SparsifyProblem) (*SparsifyResult, error) { return core.Sparsify(p) }

// Expand continues a previous plan with additional demand (incremental
// deployment, §4.1).
func Expand(p SparsifyProblem, prev *SparsifyResult, extraDemand []float64) (*SparsifyResult, error) {
	return core.Expand(p, prev, extraDemand)
}

// VerifyAvailability recomputes the satisfied demand fraction of a plan.
func VerifyAvailability(lib *Library, x []int, demand []float64) float64 {
	return core.Verify(lib, x, demand)
}

// ---- Baseline constellations (§6.1 comparisons) ----

// WalkerConfig is a uniform Walker-delta constellation.
type WalkerConfig = baseline.WalkerConfig

// StarlinkShells approximates the 6,793-satellite multi-shell layout.
func StarlinkShells() []baseline.Shell { return baseline.StarlinkShells() }

// StarlinkSatellites expands the shells to satellites.
func StarlinkSatellites() []OrbitElements { return baseline.StarlinkSatellites() }

// ---- Control plane (§4.2) ----

// Topology is the geographic topology intent G(V, E, N).
type Topology = intent.Topology

// Route is a hop-by-hop geographic cell route.
type Route = intent.Route

// VerifyConfig bounds the intent verifier's physical checks.
type VerifyConfig = intent.VerifyConfig

// DefaultVerifyConfig matches the paper's satellite model (§6.1).
var DefaultVerifyConfig = intent.DefaultVerifyConfig

// NewTopology creates an empty intent over a grid.
func NewTopology(g *Grid) *Topology { return intent.NewTopology(g) }

// GuaranteedFromSupply converts an unfolded supply vector into per-cell
// guaranteed satellite counts n_u (the §4.2 geographic invariant).
func GuaranteedFromSupply(g *Grid, slots int, supply []float64) map[int]int {
	return intent.GuaranteedFromSupply(g, slots, supply)
}

// MeshIntent builds a mesh-grid intent over sufficiently guaranteed cells.
func MeshIntent(g *Grid, guaranteed map[int]int, minSats, islPerEdge int) *Topology {
	return intent.MeshIntent(g, guaranteed, minSats, islPerEdge)
}

// BackboneIntent builds an intent connecting named endpoints along
// great-circle corridors; returns per-endpoint anchor cells.
func BackboneIntent(g *Grid, endpoints map[string]LatLon, links [][2]string, satsPerCell, islPerEdge int) (*Topology, map[string]int) {
	return intent.BackboneIntent(g, endpoints, links, satsPerCell, islPerEdge)
}

// MPCConfig parameterizes the orbital model predictive controller.
type MPCConfig = mpc.Config

// MPCController compiles intents into satellite topologies.
type MPCController = mpc.Controller

// Snapshot is one compiled satellite topology.
type Snapshot = mpc.Snapshot

// ISL is an undirected satellite link.
type ISL = mpc.Link

// OrbitCacheStats reports the controller's propagation-cache
// effectiveness (MPCController.CacheStats).
type OrbitCacheStats = orbit.CacheStats

// NewController validates the config and creates an orbital MPC.
// Compile(t) is the cold reference; a control loop compiles a window as
// the chain snap = DeltaCompile(prev, t), which warm-starts each slot
// from the previous one with output identical to Compile(t).
func NewController(cfg MPCConfig) (*MPCController, error) { return mpc.New(cfg) }

// ---- Data plane (§4.3) ----

// Network is the emulated satellite data plane.
type Network = dataplane.Network

// Satellite is one forwarding node.
type Satellite = dataplane.Satellite

// Packet is a data-plane packet.
type Packet = dataplane.Packet

// NewNetwork creates an empty emulated network.
func NewNetwork() *Network { return dataplane.NewNetwork() }

// NewGeoPacket builds a geographic segment anycast packet along a cell
// route.
func NewGeoPacket(src uint32, route []int, flow, seq uint32, payload []byte) (*Packet, error) {
	return dataplane.NewGeoPacket(src, route, flow, seq, payload)
}

// ---- Southbound control protocol (§5, over real TCP) ----

// SouthboundController is the terrestrial controller endpoint.
type SouthboundController = southbound.Controller

// SouthboundAgent is the per-satellite agent endpoint.
type SouthboundAgent = southbound.Agent

// SouthboundMessage is one protocol message.
type SouthboundMessage = southbound.Message

// ListenSouthbound starts a controller on addr.
func ListenSouthbound(addr string) (*SouthboundController, error) {
	return southbound.ListenController(addr)
}

// DialSouthbound connects and registers an agent with default options. The
// session survives transport loss: the agent re-dials with backoff and is
// re-synced with a snapshot of its desired ISL peers.
func DialSouthbound(addr string, satID uint32, timeout time.Duration) (*SouthboundAgent, error) {
	return southbound.DialAgent(addr, satID, timeout)
}

// SouthboundAgentOptions tunes an agent's reliability behaviour: the
// backoff and jitter of its reconnects, and its tracer.
type SouthboundAgentOptions = southbound.AgentOptions

// DialSouthboundReliable connects and registers an agent with explicit
// reliability options. Like every agent it survives transport loss: it
// re-dials with backoff. Delivery is TCP's; a command lost with its
// session is superseded by the snapshot re-sync the controller's
// DeltaEnforcer sends the re-registered agent.
func DialSouthboundReliable(addr string, satID uint32, timeout time.Duration, opts SouthboundAgentOptions) (*SouthboundAgent, error) {
	return southbound.DialAgentOptions(addr, satID, timeout, opts)
}
