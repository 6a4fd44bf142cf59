package ldms

import (
	"testing"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testFabric(t *testing.T) (*network.Fabric, *sim.Kernel) {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	return network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), 1), k
}

// drip injects a message every interval until stop, keeping traffic
// flowing across sampling windows.
func drip(fab *network.Fabric, k *sim.Kernel, interval, stop sim.Time) {
	k.SpawnAt(0, func(p *sim.Proc) {
		for n := topology.NodeID(0); p.Now() < stop; n = (n + 1) % 8 {
			fab.Send(n, 20, 64*1024, routing.AD0)
			p.Sleep(interval)
		}
	})
}

// stopAt stops d at virtual time t.
func stopAt(k *sim.Kernel, d *Daemon, t sim.Time) {
	k.SpawnAt(t, func(*sim.Proc) { d.Stop() })
}

func TestDaemonSamples(t *testing.T) {
	fab, k := testFabric(t)
	d := Start(fab, Options{Period: sim.Millisecond, RecordRouterRatios: true, RecordNICLatency: true})
	drip(fab, k, 100*sim.Microsecond, 5*sim.Millisecond)
	stopAt(k, d, 6*sim.Millisecond)
	k.Run()
	samples := d.Samples()
	if len(samples) < 5 {
		t.Fatalf("samples = %d, want >= 5", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At <= samples[i-1].At {
			t.Fatal("sample times not increasing")
		}
	}
	// Early windows saw traffic.
	if samples[0].Totals.TotalFlits() == 0 {
		t.Fatal("first window empty despite traffic")
	}
	if d.RouterRatioAgg().Count() == 0 {
		t.Fatal("no router ratios")
	}
	if d.NICLatencyAgg().Count() == 0 {
		t.Fatal("no NIC latencies")
	}
	for _, s := range samples {
		for _, l := range s.NICLatency {
			if l <= 0 {
				t.Fatal("nonpositive latency sample")
			}
		}
	}
}

func TestDaemonStopHaltsSampling(t *testing.T) {
	fab, k := testFabric(t)
	d := Start(fab, Options{Period: sim.Millisecond})
	stopAt(k, d, 2500*sim.Microsecond)
	// Without Stop the daemon would keep the kernel alive forever; Run
	// returning at all proves the chain stops.
	end := k.Run()
	if end > 4*sim.Millisecond {
		t.Fatalf("kernel ran to %v after Stop", end)
	}
	n := len(d.Samples())
	d.Stop() // idempotent
	if len(d.Samples()) != n {
		t.Fatal("second Stop added samples")
	}
}

func TestDeltaWindows(t *testing.T) {
	// Counter deltas across windows must sum to the global counters.
	fab, k := testFabric(t)
	d := Start(fab, Options{Period: sim.Millisecond})
	drip(fab, k, 200*sim.Microsecond, 4*sim.Millisecond)
	stopAt(k, d, 8*sim.Millisecond)
	k.Run()
	var total uint64
	for _, s := range d.Samples() {
		total += s.Totals.TotalFlits()
	}
	global := fab.Counters().Aggregate(nil)
	if total != global.TotalFlits() {
		t.Fatalf("window sum %d != global %d", total, global.TotalFlits())
	}
}

func TestDefaultPeriod(t *testing.T) {
	fab, k := testFabric(t)
	d := Start(fab, Options{})
	if d.opts.Period != sim.Second {
		t.Fatalf("default period = %v", d.opts.Period)
	}
	d.Stop()
	k.Run()
}
