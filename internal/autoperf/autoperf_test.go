package autoperf

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func runInstrumented(t *testing.T, n int) *Report {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), 1)
	nodes := make([]topology.NodeID, n)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	coll := Attach(fab, nodes)
	w := mpi.NewWorld(fab, nodes, mpi.DefaultEnv())
	w.Run(apps.MILC{}.Main(apps.Config{Iterations: 2, Scale: 0.2, Seed: 2}))
	k.Run()
	if !w.Done.Fired() {
		t.Fatal("app did not finish")
	}
	return coll.Finish("MILC", w)
}

func TestReportBasics(t *testing.T) {
	r := runInstrumented(t, 8)
	if r.App != "MILC" || r.Ranks != 8 {
		t.Fatalf("header: %+v", r)
	}
	if r.Runtime <= 0 {
		t.Fatal("runtime")
	}
	if r.Profile.ByCall[mpi.Allreduce].Calls == 0 {
		t.Fatal("no allreduce stats")
	}
	f := r.MPIFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("MPI fraction = %g", f)
	}
}

func TestReportLocalTiles(t *testing.T) {
	r := runInstrumented(t, 8)
	// The app's traffic must appear on its local processor tiles.
	if r.LocalTiles.Flits[topology.TileProcReq] == 0 {
		t.Fatal("no local proc flits")
	}
	if r.LocalTiles.TotalFlits() == 0 {
		t.Fatal("no local flits at all")
	}
	if len(r.LocalTileRatios[topology.TileRank1]) == 0 {
		t.Fatal("no rank-1 tile ratio samples")
	}
}

func TestReportDeltaSemantics(t *testing.T) {
	// Attaching after earlier traffic must exclude it.
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), 1)
	fab.Send(0, 10, 1<<20, routing.AD0)
	k.Run()
	preFlits := fab.Counters().Aggregate(nil).TotalFlits()
	if preFlits == 0 {
		t.Fatal("warmup produced no flits")
	}
	nodes := []topology.NodeID{0, 1}
	coll := Attach(fab, nodes)
	w := mpi.NewWorld(fab, nodes, mpi.DefaultEnv())
	w.Run(func(r *mpi.Rank) { r.Allreduce(64) })
	k.Run()
	rep := coll.Finish("tiny", w)
	if rep.LocalTiles.TotalFlits() >= preFlits {
		t.Fatalf("report includes pre-attach traffic: %d >= %d",
			rep.LocalTiles.TotalFlits(), preFlits)
	}
}

func TestReportString(t *testing.T) {
	r := runInstrumented(t, 4)
	s := r.String()
	for _, want := range []string{"MILC", "MPI_Allreduce", "Rank1", "Proc_req"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

// TestReportStringTieOrder pins the report's call order: time descending,
// then name.
func TestReportStringTieOrder(t *testing.T) {
	r := &Report{
		App:     "tie",
		Ranks:   4,
		Runtime: sim.Millisecond,
		Profile: &mpi.Profile{ByCall: [mpi.NumCalls]mpi.CallStats{
			mpi.Waitall:   {Calls: 3, Time: 9 * sim.Microsecond},
			mpi.Isend:     {Calls: 5, Bytes: 500, Time: 4 * sim.Microsecond},
			mpi.Irecv:     {Calls: 5, Bytes: 500, Time: 4 * sim.Microsecond},
			mpi.Bcast:     {Calls: 1, Bytes: 8, Time: 4 * sim.Microsecond},
			mpi.Barrier:   {Calls: 2, Time: 4 * sim.Microsecond},
			mpi.Allreduce: {Calls: 2, Bytes: 16, Time: 4 * sim.Microsecond},
			mpi.Recv:      {Calls: 1, Bytes: 8, Time: sim.Microsecond},
		}},
	}
	want := []string{"MPI_Waitall", "MPI_Allreduce", "MPI_Barrier", "MPI_Bcast",
		"MPI_Irecv", "MPI_Isend", "MPI_Recv"}
	var got []string
	for _, line := range strings.Split(r.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "MPI_") {
			got = append(got, f[0])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("call order %v, want %v", got, want)
	}
}
