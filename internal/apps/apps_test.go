package apps

import (
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// runApp executes one app on n consecutive nodes of a test dragonfly and
// returns the world for inspection.
func runApp(t testing.TB, a App, n int, cfg Config) *mpi.World {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if n > topo.NumNodes() {
		t.Fatalf("n=%d > %d nodes", n, topo.NumNodes())
	}
	k := sim.NewKernel()
	fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), cfg.Seed)
	nodes := make([]topology.NodeID, n)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	w := mpi.NewWorld(fab, nodes, mpi.DefaultEnv())
	w.Run(a.Main(cfg))
	k.Run()
	if !w.Done.Fired() {
		t.Fatalf("%s did not complete (deadlock?)", a.Name())
	}
	return w
}

func smallCfg() Config {
	return Config{Iterations: 2, Scale: 0.05, Seed: 7}
}

func TestFactorize4(t *testing.T) {
	cases := []struct {
		n    int
		want [4]int
	}{
		{256, [4]int{4, 4, 4, 4}},
		{128, [4]int{4, 4, 4, 2}},
		{512, [4]int{8, 4, 4, 4}},
		{1, [4]int{1, 1, 1, 1}},
		{6, [4]int{3, 2, 1, 1}},
		{30, [4]int{5, 3, 2, 1}},
	}
	for _, c := range cases {
		got := factorize4(c.n)
		if got != c.want {
			t.Errorf("factorize4(%d) = %v, want %v", c.n, got, c.want)
		}
		prod := got[0] * got[1] * got[2] * got[3]
		if prod != c.n {
			t.Errorf("factorize4(%d) product = %d", c.n, prod)
		}
	}
}

// Property: factorize4 always multiplies back to n, dims nonincreasing.
func TestFactorize4Property(t *testing.T) {
	f := func(raw uint16) bool {
		n := 1 + int(raw)%4096
		d := factorize4(n)
		if d[0]*d[1]*d[2]*d[3] != n {
			return false
		}
		for i := 1; i < 4; i++ {
			if d[i] > d[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTorusRoundTrip(t *testing.T) {
	dims := [4]int{4, 3, 2, 2}
	n := 48
	for rank := 0; rank < n; rank++ {
		if back := torusRank(torusCoords(rank, dims), dims); back != rank {
			t.Fatalf("rank %d round-trips to %d", rank, back)
		}
	}
}

func TestTorusNeighborsSymmetric(t *testing.T) {
	dims := factorize4(16)
	for rank := 0; rank < 16; rank++ {
		for _, nb := range torusNeighbors(rank, dims) {
			found := false
			for _, back := range torusNeighbors(nb, dims) {
				if back == rank {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor asymmetry: %d -> %d", rank, nb)
			}
		}
	}
}

func TestMilcReorderBijective(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		dims := factorize4(n)
		seen := make(map[int]bool, n)
		for rank := 0; rank < n; rank++ {
			l := milcReorder(rank, dims)
			if l < 0 || l >= n || seen[l] {
				t.Fatalf("n=%d: reorder not bijective at rank %d -> %d", n, rank, l)
			}
			seen[l] = true
			if inv := milcInverse(l, dims); inv != rank {
				t.Fatalf("n=%d: inverse(%d) = %d, want %d", n, l, inv, rank)
			}
		}
	}
}

func TestNekNeighborsSymmetric(t *testing.T) {
	for _, n := range []int{4, 7, 16, 33} {
		for rank := 0; rank < n; rank++ {
			for _, nb := range nekNeighbors(rank, n, 5) {
				if nb == rank {
					t.Fatalf("self neighbor at %d", rank)
				}
				sym := false
				for _, back := range nekNeighbors(nb, n, 5) {
					if back == rank {
						sym = true
					}
				}
				if !sym {
					t.Fatalf("n=%d: nek asymmetry %d -> %d", n, rank, nb)
				}
			}
		}
	}
}

func TestFFTPartnerInvolution(t *testing.T) {
	for _, n := range []int{8, 16, 64, 10, 37} {
		for round := 0; round < 6; round++ {
			for rank := 0; rank < n; rank++ {
				p := fftPartner(rank, n, round)
				if p < 0 || p >= n {
					t.Fatalf("partner out of range: n=%d rank=%d -> %d", n, rank, p)
				}
				if back := fftPartner(p, n, round); back != rank {
					t.Fatalf("n=%d round=%d: fftPartner not involutive: %d -> %d -> %d",
						n, round, rank, p, back)
				}
			}
		}
	}
}

func TestAllAppsComplete(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			for _, n := range []int{4, 8, 13, 16} {
				w := runApp(t, a, n, smallCfg())
				if w.Runtime() <= 0 {
					t.Fatalf("n=%d: runtime %v", n, w.Runtime())
				}
			}
		})
	}
}

func TestSingleRankApps(t *testing.T) {
	// Degenerate single-rank runs must not hang.
	for _, a := range All() {
		w := runApp(t, a, 1, smallCfg())
		if !w.Done.Fired() {
			t.Fatalf("%s hangs at n=1", a.Name())
		}
	}
}

func TestMILCDominantCalls(t *testing.T) {
	cfg := Config{Iterations: 4, Scale: 0.5, Seed: 3}
	w := runApp(t, MILC{}, 16, cfg)
	prof := w.AggregateProfile()
	top := prof.TopCalls(3)
	// The paper's Table I: MILC's top calls are Allreduce, Wait(all), Isend.
	want := map[mpi.Call]bool{
		mpi.Allreduce: true, mpi.Wait: true, mpi.Waitall: true,
		mpi.Isend: true, mpi.Irecv: true,
	}
	for _, call := range top {
		if !want[call] {
			t.Errorf("unexpected dominant call %s (top=%v)", call, top)
		}
	}
	if prof.ByCall[mpi.Allreduce].Calls == 0 {
		t.Error("MILC without allreduce")
	}
	if prof.ByCall[mpi.Allreduce].AvgBytes() != 8 {
		t.Errorf("MILC allreduce avg bytes = %g, want 8 (scale does not apply to reductions)",
			prof.ByCall[mpi.Allreduce].AvgBytes())
	}
}

func TestQboxAlltoallvDominates(t *testing.T) {
	cfg := Config{Iterations: 3, Scale: 0.5, Seed: 3}
	w := runApp(t, Qbox{}, 12, cfg)
	prof := w.AggregateProfile()
	top := prof.TopCalls(1)
	if len(top) == 0 || top[0] != mpi.Alltoallv {
		t.Errorf("Qbox top call = %v, want MPI_Alltoallv", top)
	}
}

func TestRayleighNoP2PPattern(t *testing.T) {
	cfg := Config{Iterations: 2, Scale: 0.01, Seed: 3}
	w := runApp(t, Rayleigh{}, 8, cfg)
	prof := w.AggregateProfile()
	a2av := prof.ByCall[mpi.Alltoallv]
	if a2av.Calls == 0 {
		t.Fatal("Rayleigh without alltoallv")
	}
	if prof.ByCall[mpi.Barrier].Calls == 0 {
		t.Error("Rayleigh without barrier")
	}
	// Alltoallv must carry the overwhelming share of payload bytes.
	var others uint64
	for c, s := range prof.ByCall {
		if mpi.Call(c) != mpi.Alltoallv {
			others += s.Bytes
		}
	}
	if a2av.Bytes < 4*others {
		t.Errorf("Rayleigh alltoallv bytes %d not dominant vs %d", a2av.Bytes, others)
	}
}

func TestHACCLargeMessages(t *testing.T) {
	cfg := Config{Iterations: 2, Scale: 1.0, Seed: 3}
	w := runApp(t, HACC{}, 8, cfg)
	prof := w.AggregateProfile()
	// The FFT messages (1.2MB) travel via Isend; even diluted by the
	// smaller particle exchanges the average must stay large.
	is := prof.ByCall[mpi.Isend]
	if is.AvgBytes() < 250*1024 {
		t.Errorf("HACC Isend avg bytes = %v", is.AvgBytes())
	}
	if prof.ByCall[mpi.Wait].Calls == 0 {
		t.Error("HACC without MPI_Wait")
	}
}

func TestNoisePatternsComplete(t *testing.T) {
	for _, p := range []NoisePattern{NoiseUniform, NoiseHotspot, NoiseStencil, NoiseShift} {
		noise := Noise{Pattern: p, MsgBytes: 8 * 1024, Gap: 50 * sim.Microsecond, Duration: 2 * sim.Millisecond}
		w := runApp(t, noise, 8, Config{Iterations: 1, Scale: 1, Seed: 11})
		if w.Runtime() < 2*sim.Millisecond {
			t.Errorf("%s: runtime %v below requested duration", noise.Name(), w.Runtime())
		}
	}
}

// TestNoiseRNGLazy pins the lazy per-rank source: stencil and shift
// ranks pick destinations without ever building one, while uniform and
// hotspot ranks build it on their first message.
func TestNoiseRNGLazy(t *testing.T) {
	const size, hot = 16, 3
	for _, p := range []NoisePattern{NoiseUniform, NoiseHotspot, NoiseStencil, NoiseShift} {
		n := Noise{Pattern: p}
		for rank := 0; rank < size; rank++ {
			rng := lazyRNG{cfg: Config{Seed: 7}, rank: rank}
			for it := 0; it < 2*size; it++ {
				if dst := n.dest(&rng, rank, size, hot, it); dst < 0 || dst >= size || dst == rank {
					t.Fatalf("%v rank %d iteration %d: destination %d", p, rank, it, dst)
				}
			}
			draws := p == NoiseUniform || p == NoiseHotspot
			if built := rng.src != nil; built != draws {
				t.Fatalf("%v rank %d: source built = %v, want %v", p, rank, built, draws)
			}
		}
	}
}

func TestNoiseSingleRankNoop(t *testing.T) {
	noise := Noise{Pattern: NoiseUniform, Duration: sim.Millisecond}
	w := runApp(t, noise, 1, Config{Iterations: 1, Scale: 1, Seed: 1})
	if !w.Done.Fired() {
		t.Fatal("single-rank noise hangs")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"MILC", "MILCREORDER", "Nek5000", "HACC", "Qbox", "Rayleigh"} {
		a, err := ByName(name)
		if err != nil || a.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := ByName("VASP"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestConfigScaled(t *testing.T) {
	c := Config{Scale: 0.001}
	if c.scaled(100) != 1 {
		t.Error("scaled floor broken")
	}
	c.Scale = 2
	if c.scaled(100) != 200 {
		t.Error("scaling broken")
	}
}
