package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Layer probes time one public entry point of a layer in isolation, on
// the workloads' own topologies. Each is repeated probeReps times and
// reports the median, so one slow host phase does not set the figure.
const probeReps = 5

// repeat runs fn probeReps times and returns the median of its results.
func repeat(fn func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = fn()
	}
	return percentile(xs, 50)
}

// nopHandler is the benchmark's own typed-event handler: it does nothing,
// so the probe times only the kernel's queue and dispatch.
type nopHandler struct{}

func (nopHandler) HandleEvent(uint8, int64, int64) {}

// countingLoad is the benchmark's own LoadEstimator: it forwards to the
// fabric and counts the queries one routing decision makes.
type countingLoad struct {
	est     routing.LoadEstimator
	queries uint64
}

func (c *countingLoad) Load(id topology.LinkID) int {
	c.queries++
	return c.est.Load(id)
}

// probeTopo is one topology the probes run on: "mini" is the simd
// workloads' theta-mini, "theta" the full-size machine.
type probeTopo struct {
	name string
	topo *topology.Topology
}

// runProbes reports every probe metric through set. decodeBody is the
// request the service decode probe parses.
func runProbes(decodeBody []byte, set func(name, unit string, v float64)) error {
	var topos []probeTopo
	for _, c := range []struct {
		name string
		cfg  topology.Config
	}{{"mini", topology.ThetaMiniConfig()}, {"theta", topology.ThetaConfig()}} {
		topo, err := topology.Build(c.cfg)
		if err != nil {
			return err
		}
		topos = append(topos, probeTopo{c.name, topo})
	}

	// Events go in batches at random future times, so the queue holds
	// about a thousand events, as a busy fabric's does.
	const batch, batches = 1024, 200
	set("sim.event_ns", "ns", repeat(func() float64 {
		k := sim.NewKernel()
		h := k.RegisterHandler(nopHandler{})
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				k.AtEvent(k.Now()+1+sim.Time(rng.Intn(1<<20)), h, 0, 0, 0)
			}
			k.Run()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(k.Stats().EventsExecuted)
	}))

	const sleeps = 50_000
	set("sim.proc_switch_ns", "ns", repeat(func() float64 {
		k := sim.NewKernel()
		k.Spawn(func(p *sim.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
		start := time.Now()
		k.Run()
		return float64(time.Since(start).Nanoseconds()) / float64(k.Stats().ProcSwitches)
	}))

	const decisions = 100_000
	var queries, made uint64
	for _, pt := range topos {
		name, topo := pt.name, pt.topo
		f := network.New(sim.NewKernel(), topo, network.DefaultParams(), routing.DefaultConfig(), 1)
		est := &countingLoad{est: f}
		eng := routing.NewEngine(topo, est, routing.DefaultConfig())
		nr := topo.NumRouters()
		buf := make([]topology.LinkID, 0, 16)
		set("routing.decision_ns."+name, "ns", repeat(func() float64 {
			rng := rand.New(rand.NewSource(3))
			q0 := est.queries
			start := time.Now()
			for i := 0; i < decisions; i++ {
				src := topology.RouterID(rng.Intn(nr))
				dst := topology.RouterID(rng.Intn(nr))
				buf, _ = eng.RouteInto(buf[:0], routing.Mode(i%4), rng, src, dst, 0)
			}
			ns := float64(time.Since(start).Nanoseconds()) / decisions
			if name == "mini" {
				queries += est.queries - q0
				made += decisions
			}
			return ns
		}))
	}
	set("routing.load_queries_per_decision", "count", float64(queries)/float64(made))

	const packets = 2000
	var lost uint64
	for _, pt := range topos {
		name, topo := pt.name, pt.topo
		var evPerPkt, tailPerPkt float64
		set("network.pkt_ns."+name, "ns", repeat(func() float64 {
			k := sim.NewKernel()
			f := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), 1)
			rng := rand.New(rand.NewSource(2))
			n := topo.NumNodes()
			msgs := make([]*network.Message, packets)
			start := time.Now()
			for i := range msgs {
				msgs[i] = f.Send(topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n)), 4096, routing.AD0)
			}
			k.Run()
			ns := float64(time.Since(start).Nanoseconds()) / packets
			for _, m := range msgs {
				if !m.Done.Fired() {
					lost++
				}
			}
			evPerPkt = float64(k.Stats().EventsExecuted) / packets
			tailPerPkt = float64(k.Stats().TailCalls) / packets
			return ns
		}))
		if name == "mini" {
			set("network.events_per_pkt", "count", evPerPkt)
			set("network.tail_calls_per_pkt", "count", tailPerPkt)
		}
	}

	if lost != 0 {
		return fmt.Errorf("packet probe: %d packets not delivered", lost)
	}

	var buildErr error
	set("topology.build_ms.theta", "ms", repeat(func() float64 {
		start := time.Now()
		if _, err := topology.Build(topology.ThetaConfig()); err != nil {
			buildErr = err
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6
	}))
	if buildErr != nil {
		return buildErr
	}
	set("network.fabric_build_ms.theta", "ms", repeat(func() float64 {
		start := time.Now()
		network.New(sim.NewKernel(), topos[1].topo, network.DefaultParams(), routing.DefaultConfig(), 1)
		return float64(time.Since(start).Nanoseconds()) / 1e6
	}))

	const adds = 100_000
	set("stats.agg_add_ns", "ns", repeat(func() float64 {
		rng := rand.New(rand.NewSource(4))
		a := stats.NewAgg()
		start := time.Now()
		for i := 0; i < adds; i++ {
			a.Add(rng.Float64())
		}
		return float64(time.Since(start).Nanoseconds()) / adds
	}))
	const merges = 200
	set("stats.agg_merge_us", "us", repeat(func() float64 {
		rng := rand.New(rand.NewSource(5))
		parts := make([]*stats.Agg, merges)
		for i := range parts {
			parts[i] = stats.NewAgg()
			for j := 0; j < 5000; j++ {
				parts[i].Add(rng.Float64())
			}
		}
		start := time.Now()
		total := stats.NewAgg()
		for _, p := range parts {
			total.Merge(p)
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / merges
	}))

	const decodes = 20_000
	var decodeErr error
	set("service.decode_us", "us", repeat(func() float64 {
		start := time.Now()
		for i := 0; i < decodes; i++ {
			if _, err := service.DecodeRequest(decodeBody, service.Limits{}); err != nil {
				decodeErr = err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / decodes
	}))
	return decodeErr
}
