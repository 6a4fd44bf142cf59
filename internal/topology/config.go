// Package topology models the Cray Aries dragonfly interconnect graph:
// three link ranks (rank-1 intra-chassis, rank-2 intra-group columns,
// rank-3 optical inter-group), routers with 4 NIC-attached nodes, and the
// 48-tile layout per router that the paper's hardware counters are read
// from. The package is purely structural — link state and counters live in
// internal/network.
package topology

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Config describes one dragonfly machine. All structural parameters are
// free so tests can build tiny instances, while ThetaConfig and CoriConfig
// match the two production systems in the paper.
type Config struct {
	Name string

	// Structure.
	Groups             int // number of electrical groups
	ChassisPerGroup    int // Aries: 6 (a group is 2 cabinets x 3 chassis)
	SlotsPerChassis    int // routers per chassis row; Aries: 16
	NodesPerRouter     int // Aries: 4
	ActiveNodes        int // usable compute nodes (may be < capacity)
	Rank2LinksPerPair  int // parallel links between column peers; Aries: 3
	GlobalLinksPerPair int // optical cables between each pair of groups

	// Per-direction link bandwidths, bytes/second. The paper quotes
	// 10.5 GB/s bidirectional for copper and 9.38 GB/s for optical; we
	// model each direction as an independent simplex channel.
	Rank1Bandwidth     float64
	Rank2Bandwidth     float64
	Rank3Bandwidth     float64
	InjectionBandwidth float64 // NIC to router, and router to NIC (Aries NICs are symmetric)

	// Per-hop propagation + switch latency.
	Rank1Latency sim.Time
	Rank2Latency sim.Time
	Rank3Latency sim.Time
	NICLatency   sim.Time
}

// Capacity returns the total number of node slots (routers x nodes/router).
func (c Config) Capacity() int { return c.Routers() * c.NodesPerRouter }

// Routers returns the total router count.
func (c Config) Routers() int { return c.Groups * c.RoutersPerGroup() }

// RoutersPerGroup returns routers in one group.
func (c Config) RoutersPerGroup() int { return c.ChassisPerGroup * c.SlotsPerChassis }

// Validate reports the first structural problem in the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.Groups < 2:
		return fmt.Errorf("topology: need at least 2 groups, have %d", c.Groups)
	case c.ChassisPerGroup < 1:
		return fmt.Errorf("topology: ChassisPerGroup must be >= 1, have %d", c.ChassisPerGroup)
	case c.SlotsPerChassis < 1:
		return fmt.Errorf("topology: SlotsPerChassis must be >= 1, have %d", c.SlotsPerChassis)
	case c.NodesPerRouter < 1:
		return fmt.Errorf("topology: NodesPerRouter must be >= 1, have %d", c.NodesPerRouter)
	case c.ActiveNodes < 1 || c.ActiveNodes > c.Capacity():
		return fmt.Errorf("topology: ActiveNodes %d out of range 1..%d", c.ActiveNodes, c.Capacity())
	case c.Rank2LinksPerPair < 1 && c.ChassisPerGroup > 1:
		return fmt.Errorf("topology: Rank2LinksPerPair must be >= 1")
	case c.GlobalLinksPerPair < 1:
		return fmt.Errorf("topology: GlobalLinksPerPair must be >= 1")
	case c.Rank1Bandwidth <= 0 || c.Rank2Bandwidth <= 0 || c.Rank3Bandwidth <= 0 || c.InjectionBandwidth <= 0:
		return fmt.Errorf("topology: all bandwidths must be positive")
	}
	return nil
}

const gb = 1e9 // bytes, decimal as in link-rate marketing

// ThetaConfig is ALCF Theta: 4392 KNL nodes, 12 groups, 12 optical cables
// between each pair of groups.
func ThetaConfig() Config {
	c := baseAries()
	c.Name = "theta"
	c.Groups = 12
	c.ActiveNodes = 4392
	c.GlobalLinksPerPair = 12
	return c
}

// CoriConfig is NERSC Cori (KNL partition): 9668 nodes and only 4 cables
// per group pair, i.e. a reduced bisection-to-injection ratio relative to
// Theta — the distinction the paper calls out.
func CoriConfig() Config {
	c := baseAries()
	c.Name = "cori"
	c.Groups = 26
	c.ActiveNodes = 9668
	c.GlobalLinksPerPair = 4
	return c
}

func baseAries() Config {
	return Config{
		ChassisPerGroup:    6,
		SlotsPerChassis:    16,
		NodesPerRouter:     4,
		Rank2LinksPerPair:  3,
		Rank1Bandwidth:     5.25 * gb, // 10.5 GB/s bidirectional
		Rank2Bandwidth:     5.25 * gb,
		Rank3Bandwidth:     4.69 * gb, // 9.38 GB/s bidirectional
		InjectionBandwidth: 8.0 * gb,
		Rank1Latency:       100 * sim.Nanosecond,
		Rank2Latency:       100 * sim.Nanosecond,
		Rank3Latency:       300 * sim.Nanosecond, // optical + longer span
		NICLatency:         500 * sim.Nanosecond,
	}
}

// ThetaMiniConfig is a scaled-down Theta used by the experiment harness:
// the same 12 groups and three-level structure, but 16 routers per group
// and 2 nodes per router (384 nodes total, ~11.4x smaller). Four global
// links per group pair keep minimal routing's rank-3 path diversity (on
// real Theta every pair has 12 cables — multiplicity is what lets strong
// minimal bias still balance load), and the per-link rank-3 bandwidth is
// reduced so the bisection-to-injection ratio matches full Theta
// (~0.115: 36 pair-cuts x 12 links x 4.69 GB/s over 2196 nodes x 8 GB/s).
func ThetaMiniConfig() Config {
	c := baseAries()
	c.Name = "theta-mini"
	c.Groups = 12
	c.ChassisPerGroup = 2
	c.SlotsPerChassis = 8
	c.NodesPerRouter = 2
	// Intra-group bandwidth must keep Aries' proportions: a real router
	// drives 15 rank-1 + 15 rank-2 links against 4 injecting nodes
	// (~2.5x each); with 8-slot chassis rows (7 rank-1 links) and one
	// column peer, 8 parallel rank-2 links restore the same ratios so
	// minimal routing is not structurally starved inside the group.
	c.Rank2LinksPerPair = 8
	c.GlobalLinksPerPair = 2
	c.Rank3Bandwidth = 2.35 * gb // 36 x 2 x 2.35 / (192 x 8) = Theta's 0.11
	c.ActiveNodes = c.Capacity()
	return c
}

// CoriMiniConfig is a scaled-down Cori: 26 groups of 16 routers (832
// nodes), keeping Cori's 4 cables per group pair and scaling per-link
// rank-3 bandwidth so the bisection-to-injection ratio matches full Cori
// (~0.082, i.e. ~71% of Theta's — the "reduced bisection-to-injection
// ratio" the paper calls out).
func CoriMiniConfig() Config {
	c := ThetaMiniConfig()
	c.Name = "cori-mini"
	c.Groups = 26
	c.Rank3Bandwidth = 1.68 * gb // 169 x 2 x 1.68 / (416 x 8) = Cori's 0.082
	c.ActiveNodes = c.Capacity()
	return c
}

// TestConfig returns a small but structurally complete dragonfly for unit
// tests: `groups` groups of 2 chassis x 4 slots with 2 nodes per router.
func TestConfig(groups int) Config {
	c := baseAries()
	c.Name = fmt.Sprintf("test-%dg", groups)
	c.Groups = groups
	c.ChassisPerGroup = 2
	c.SlotsPerChassis = 4
	c.NodesPerRouter = 2
	c.Rank2LinksPerPair = 2
	c.GlobalLinksPerPair = 4
	c.ActiveNodes = c.Capacity()
	return c
}

// machines names the configurations a command line or a request can ask
// for, sorted by name.
var machines = []struct {
	name string
	cfg  func() Config
}{
	{"cori", CoriConfig},
	{"cori-mini", CoriMiniConfig},
	{"test", func() Config { return TestConfig(4) }},
	{"theta", ThetaConfig},
	{"theta-mini", ThetaMiniConfig},
}

// Names lists the machine names ByName accepts, sorted.
func Names() []string {
	out := make([]string, len(machines))
	for i, m := range machines {
		out[i] = m.name
	}
	return out
}

// ByName returns the named machine's configuration. The error for an
// unknown name lists the valid ones.
func ByName(name string) (Config, error) {
	for _, m := range machines {
		if m.name == name {
			return m.cfg(), nil
		}
	}
	return Config{}, fmt.Errorf("unknown topology %q (one of %s)", name, strings.Join(Names(), ", "))
}
