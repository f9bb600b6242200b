package qolsr

// Routing over advertised topologies and the live OLSR/QOLSR protocol
// stack: what a deployed network does with the selected sets.

import (
	"qolsr/internal/geom"
	"qolsr/internal/olsr"
	"qolsr/internal/route"
	"qolsr/internal/sim"
)

// Routing evaluation.
type (
	// RoutePolicy selects the routing behaviour over advertised links.
	RoutePolicy = route.Policy
	// PairEval is the outcome of routing one pair.
	PairEval = route.PairEval
)

// Routing policies.
const (
	QoSOptimal    = route.QoSOptimal
	MinHopThenQoS = route.MinHopThenQoS
)

var (
	// PolicyByName resolves "qos-optimal" or "minhop-then-qos".
	PolicyByName = route.PolicyByName
	// RoutePolicyNames lists every routing policy's string form.
	RoutePolicyNames = route.PolicyNames
	// BuildAdvertised materialises the network-wide advertised topology.
	BuildAdvertised = route.BuildAdvertised
	// EvaluatePair routes one pair and compares with the optimum.
	EvaluatePair = route.EvaluatePair
	// Overhead computes the paper's relative regret.
	Overhead = route.Overhead
	// Forward walks hop-by-hop next-hop decisions.
	Forward = route.Forward
)

// Radio medium: the pluggable layer every transmission crosses. The ideal
// MAC is the paper's model; the lossy medium adds per-link packet-error
// rates, per-node transmit queues and jitter, the regime measured link
// quality (ProtocolConfig.LinkSensing = SenseDelivery) exists for.
type (
	// Medium is the radio model a Network transmits through.
	Medium = sim.Medium
	// MediumHop is one planned frame reception.
	MediumHop = sim.Hop
	// MediumLossyConfig parameterises the lossy medium.
	MediumLossyConfig = sim.LossyConfig
	// MediumIdealType is the ideal MAC implementation.
	MediumIdealType = sim.IdealMedium
	// MediumLossyType is the lossy radio implementation.
	MediumLossyType = sim.LossyMedium
)

var (
	// MediumIdeal returns the ideal MAC (the default).
	MediumIdeal = sim.NewIdealMedium
	// MediumLossy returns a lossy, queued radio.
	MediumLossy = sim.NewLossyMedium
	// MediumByName resolves a medium registry name.
	MediumByName = sim.MediumByName
	// MediumNames lists the built-in radio media.
	MediumNames = sim.MediumNames
)

// Protocol stack.
type (
	// ProtocolConfig parameterises an OLSR/QOLSR node.
	ProtocolConfig = olsr.Config
	// LinkSensing selects what writes a node's link table.
	LinkSensing = olsr.LinkSensing
	// ProtocolNode is one protocol state machine.
	ProtocolNode = olsr.Node
	// Route is one protocol routing-table entry.
	Route = olsr.Route
	// Routes is a node's routing table: a cached, read-only view with
	// allocation-free Lookup, rebuilt only when the protocol state moves.
	Routes = olsr.Routes
	// Network runs a protocol instance per node over the event
	// simulator.
	Network = sim.Network
	// NetworkOptions tunes the simulation harness.
	NetworkOptions = sim.NetworkOptions
	// TrafficStats accounts control traffic.
	TrafficStats = sim.TrafficStats
	// Waypoint is the random-waypoint mobility model.
	Waypoint = geom.Waypoint
	// Mobility advances node positions in virtual time.
	Mobility = geom.Mobility
	// MobileSim couples the protocol network to a mobility model.
	MobileSim = sim.MobileSim
)

// Link sensing modes (ProtocolConfig.LinkSensing).
const (
	SenseOracle   = olsr.SenseOracle
	SenseHost     = olsr.SenseHost
	SenseDelivery = olsr.SenseDelivery
	SenseRTT      = olsr.SenseRTT
)

var (
	// DefaultProtocolConfig returns RFC-style timers with FNBP selection.
	DefaultProtocolConfig = olsr.DefaultConfig
	// NewProtocolNode creates a protocol node.
	NewProtocolNode = olsr.NewNode
	// NewNetwork builds a simulated protocol network.
	NewNetwork = sim.NewNetwork
	// NewMobility starts a waypoint mobility population.
	NewMobility = geom.NewMobility
	// NewMobileSim deploys protocol nodes under mobility.
	NewMobileSim = sim.NewMobileSim
	// PairWeight derives stable per-pair link weights under mobility.
	PairWeight = sim.PairWeight
)
