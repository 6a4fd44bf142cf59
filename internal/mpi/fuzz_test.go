package mpi

import (
	"testing"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// FuzzAlltoallv drives Alltoallv with randomized count matrices and checks
// byte/packet conservation end to end: every packet injected into the
// fabric is delivered, nothing stays buffered, all ranks complete, and
// each rank's profiled Alltoallv byte count equals its row sum. Every
// data packet sends one response back, so delivered == 2×sent exactly.
// The f.Add corpus doubles as a regression suite under plain `go test`.
func FuzzAlltoallv(f *testing.F) {
	f.Add(uint8(2), int64(1), []byte{0})
	f.Add(uint8(4), int64(7), []byte{1, 0, 255, 16, 3, 200})
	f.Add(uint8(6), int64(42), []byte{128, 128, 128, 128})
	f.Add(uint8(5), int64(-3), []byte{255, 255, 255, 255, 255, 255, 255})
	f.Add(uint8(3), int64(0), []byte{})

	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, data []byte) {
		n := 2 + int(nRaw)%5 // 2..6 ranks
		topo, err := topology.Build(topology.TestConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), seed)

		nodes := make([]topology.NodeID, n)
		for i := range nodes {
			nodes[i] = topology.NodeID(i)
		}
		w := NewWorld(fab, nodes, DefaultEnv())

		// Count matrix from the fuzz data: counts[r][d] bytes from rank r
		// to rank d, up to ~64KB per pair (multiple packets at the 4KB MTU).
		counts := make([][]int, n)
		at := func(i int) int {
			if len(data) == 0 {
				return 0
			}
			return int(data[i%len(data)])
		}
		for r := 0; r < n; r++ {
			counts[r] = make([]int, n)
			for d := 0; d < n; d++ {
				counts[r][d] = at(r*n+d) * 257
			}
		}

		w.Run(func(r *Rank) {
			r.Alltoallv(counts[r.ID()])
		})
		k.Run()

		if !w.Done.Fired() {
			t.Fatal("world did not complete (deadlock or lost packet)")
		}
		// Packet conservation: every injected packet delivered, exactly
		// the number the count matrix implies, and no flits left queued.
		var want uint64
		for r := 0; r < n; r++ {
			for d := 0; d < n; d++ {
				if d == r {
					continue
				}
				nPkts := (counts[r][d] + network.PacketBytes - 1) / network.PacketBytes
				if nPkts < 1 {
					nPkts = 1 // zero-byte exchanges still send one packet
				}
				want += uint64(nPkts)
			}
		}
		if fab.PacketsSent != want {
			t.Fatalf("packets sent %d, count matrix implies %d", fab.PacketsSent, want)
		}
		if fab.PacketsDelivered != 2*fab.PacketsSent {
			t.Fatalf("sent %d packets but delivered %d, want data + one response each",
				fab.PacketsSent, fab.PacketsDelivered)
		}
		if q := fab.QueuedFlits(); q != 0 {
			t.Fatalf("%d flits still queued after drain", q)
		}
		// Byte conservation per rank: the profiled Alltoallv payload is
		// exactly this rank's row sum excluding self.
		for r := 0; r < n; r++ {
			var row uint64
			for d := 0; d < n; d++ {
				if d != r {
					row += uint64(counts[r][d])
				}
			}
			st := w.Rank(r).Profile().ByCall[Alltoallv]
			if st.Calls != 1 {
				t.Fatalf("rank %d: missing MPI_Alltoallv profile entry", r)
			}
			if st.Bytes != row {
				t.Fatalf("rank %d: profiled %d bytes, row sum %d", r, st.Bytes, row)
			}
		}
	})
}
