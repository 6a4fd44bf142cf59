package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testWorld builds a world of n ranks on consecutive nodes of a small
// 3-group test dragonfly.
func testWorld(t testing.TB, n int, env Env) (*World, *sim.Kernel) {
	t.Helper()
	topo, err := topology.Build(topology.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if n > topo.NumNodes() {
		t.Fatalf("n=%d exceeds %d nodes", n, topo.NumNodes())
	}
	k := sim.NewKernel()
	fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), 1)
	nodes := make([]topology.NodeID, n)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	return NewWorld(fab, nodes, env), k
}

func runWorld(t testing.TB, w *World, k *sim.Kernel, main func(r *Rank)) {
	t.Helper()
	w.Run(main)
	k.Run()
	if !w.Done.Fired() {
		t.Fatal("world did not complete — deadlock or lost message")
	}
}

func TestSendRecvBlocking(t *testing.T) {
	w, k := testWorld(t, 2, DefaultEnv())
	var recvAt sim.Time
	runWorld(t, w, k, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 1024)
		} else {
			r.Recv(0, 7, 1024)
			recvAt = r.Now()
		}
	})
	if recvAt <= 0 {
		t.Fatal("receive completed at time zero")
	}
}

func TestIsendIrecvWait(t *testing.T) {
	w, k := testWorld(t, 2, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		if r.ID() == 0 {
			q := r.Isend(1, 3, 4096)
			r.Wait(q)
			if !q.Done() {
				t.Error("send request not done after Wait")
			}
		} else {
			q := r.Irecv(0, 3, 4096)
			r.Wait(q)
			if q.MatchedSrc != 0 || q.MatchedTag != 3 {
				t.Errorf("matched (%d,%d), want (0,3)", q.MatchedSrc, q.MatchedTag)
			}
		}
	})
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// Receiver posts long after arrival: the message must wait in the
	// unexpected queue and still match.
	w, k := testWorld(t, 2, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, 256)
		} else {
			r.Compute(50 * sim.Microsecond)
			r.Recv(0, 5, 256)
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	w, k := testWorld(t, 3, DefaultEnv())
	got := make([]int, 0, 2)
	runWorld(t, w, k, func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 2; i++ {
				q := r.Irecv(AnySource, AnyTag, 64)
				r.Wait(q)
				got = append(got, q.MatchedSrc)
			}
		default:
			r.Send(0, 40+r.ID(), 64)
		}
	})
	if len(got) != 2 {
		t.Fatalf("received %d messages", len(got))
	}
	if !((got[0] == 1 && got[1] == 2) || (got[0] == 2 && got[1] == 1)) {
		t.Fatalf("sources = %v", got)
	}
}

func TestTagSelectivity(t *testing.T) {
	// Two messages with different tags from the same source must match
	// the right recvs regardless of posting order.
	w, k := testWorld(t, 2, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 100, 64)
			r.Send(1, 200, 128)
		} else {
			q200 := r.Irecv(0, 200, 128)
			q100 := r.Irecv(0, 100, 64)
			r.Waitall(q200, q100)
			if q200.MatchedTag != 200 || q100.MatchedTag != 100 {
				t.Errorf("tags matched %d,%d", q200.MatchedTag, q100.MatchedTag)
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	w, k := testWorld(t, 1, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		q := r.Isend(0, 1, 512)
		p := r.Irecv(0, 1, 512)
		r.Waitall(q, p)
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		w, k := testWorld(t, n, DefaultEnv())
		after := make([]sim.Time, n)
		slowest := sim.Time(0)
		runWorld(t, w, k, func(r *Rank) {
			d := sim.Time(r.ID()) * 10 * sim.Microsecond
			if d > slowest {
				slowest = d
			}
			r.Compute(d)
			r.Barrier()
			after[r.ID()] = r.Now()
		})
		for i, ti := range after {
			if ti < slowest {
				t.Fatalf("n=%d: rank %d left barrier at %v before slowest arrival %v",
					n, i, ti, slowest)
			}
		}
	}
}

func TestAllreduceCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		w, k := testWorld(t, n, DefaultEnv())
		runWorld(t, w, k, func(r *Rank) {
			r.Allreduce(8)
			r.Allreduce(1024)
		})
		prof := w.AggregateProfile()
		s := prof.ByCall[Allreduce]
		if n > 1 && s.Calls != uint64(2*n) {
			t.Fatalf("n=%d: allreduce calls = %+v", n, s)
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, n := range []int{2, 4, 6, 9} {
		for root := 0; root < n; root += 3 {
			w, k := testWorld(t, n, DefaultEnv())
			runWorld(t, w, k, func(r *Rank) {
				r.Bcast(root, 4096)
			})
			if s := w.AggregateProfile().ByCall[Bcast]; s.Calls != uint64(n) {
				t.Fatalf("n=%d root=%d: bcast calls = %+v", n, root, s)
			}
		}
	}
}

// uniformCounts returns an Alltoallv count vector sending bytes to each
// of n ranks.
func uniformCounts(n, bytes int) []int {
	counts := make([]int, n)
	for d := range counts {
		counts[d] = bytes
	}
	return counts
}

func TestAlltoallCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 5, 8} {
		w, k := testWorld(t, n, DefaultEnv())
		runWorld(t, w, k, func(r *Rank) {
			r.Alltoallv(uniformCounts(n, 2048))
		})
		prof := w.AggregateProfile()
		if s := prof.ByCall[Alltoallv]; s.Bytes != uint64(n*(n-1)*2048) {
			t.Fatalf("n=%d: alltoallv stats = %+v", n, s)
		}
	}
}

func TestAlltoallvAsymmetric(t *testing.T) {
	const n = 4
	w, k := testWorld(t, n, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		counts := make([]int, n)
		for d := range counts {
			counts[d] = 512 * (1 + (r.ID()+d)%3)
		}
		r.Alltoallv(counts)
	})
}

func TestBackToBackCollectives(t *testing.T) {
	// Rapid-fire mixed collectives: exercises tag-space separation.
	w, k := testWorld(t, 6, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Allreduce(8)
			r.Barrier()
			r.Alltoallv(uniformCounts(6, 256))
			r.Bcast(i%6, 512)
		}
	})
}

func TestProfileAccounting(t *testing.T) {
	w, k := testWorld(t, 2, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		r.Compute(100 * sim.Microsecond)
		if r.ID() == 0 {
			r.Send(1, 1, 1<<20)
		} else {
			r.Recv(0, 1, 1<<20)
		}
		r.Allreduce(8)
	})
	p0 := &w.ranks[0].prof
	if p0.ComputeTime != 100*sim.Microsecond {
		t.Errorf("compute time = %v", p0.ComputeTime)
	}
	if p0.ByCall[Send].Calls != 1 || p0.ByCall[Send].Bytes != 1<<20 {
		t.Errorf("send stats = %+v", p0.ByCall[Send])
	}
	if p0.ByCall[Allreduce].Calls == 0 {
		t.Error("no allreduce in profile")
	}
	agg := w.AggregateProfile()
	if agg.MPITime() <= 0 || agg.TotalTime() <= agg.MPITime() {
		t.Errorf("aggregate times: mpi=%v total=%v", agg.MPITime(), agg.TotalTime())
	}
	top := agg.TopCalls(3)
	if len(top) == 0 {
		t.Fatal("no top calls")
	}
}

func TestWorldRuntime(t *testing.T) {
	w, k := testWorld(t, 4, DefaultEnv())
	runWorld(t, w, k, func(r *Rank) {
		r.Compute(sim.Millisecond)
		r.Barrier()
	})
	if w.Runtime() < sim.Millisecond {
		t.Fatalf("runtime %v < compute time", w.Runtime())
	}
}

func TestA2AModeUsed(t *testing.T) {
	// The same contended alltoallv under default mode AD3 runs twice, once
	// with A2A mode AD0 and once with AD3. Only the A2A mode differs, so
	// more non-minimal routes under A2A AD0 prove alltoallv traffic is
	// posted with the A2A mode.
	nonMinimal := func(a2a routing.Mode) uint64 {
		topo, err := topology.Build(topology.TestConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), 3)
		n := 12
		nodes := make([]topology.NodeID, n)
		for i := range nodes {
			nodes[i] = topology.NodeID(i * 2) // spread across routers
		}
		w := NewWorld(fab, nodes, Env{RoutingMode: routing.AD3, A2ARoutingMode: a2a})
		w.Run(func(r *Rank) {
			for i := 0; i < 3; i++ {
				r.Alltoallv(uniformCounts(n, 64*1024))
			}
		})
		k.Run()
		if !w.Done.Fired() {
			t.Fatal("alltoall deadlocked")
		}
		return w.NonMinimalPkts
	}
	if ad0, ad3 := nonMinimal(routing.AD0), nonMinimal(routing.AD3); ad0 <= ad3 {
		t.Fatalf("A2A AD0 took %d non-minimal packets, A2A AD3 %d: A2A mode not applied", ad0, ad3)
	}
}

func TestPeerRangePanics(t *testing.T) {
	w, k := testWorld(t, 2, DefaultEnv())
	panicked := false
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			r.Send(5, 0, 10) // out of range
		}
	})
	k.Run()
	if !panicked {
		t.Fatal("out-of-range peer did not panic")
	}
}

// Property: random mixes of p2p exchanges always complete (no deadlock, no
// mismatches) with matched sends and recvs.
func TestP2PPairProperty(t *testing.T) {
	f := func(seed int64, nMsgRaw uint8) bool {
		topo, err := topology.Build(topology.TestConfig(3))
		if err != nil {
			return false
		}
		k := sim.NewKernel()
		fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), seed)
		const n = 6
		nodes := make([]topology.NodeID, n)
		for i := range nodes {
			nodes[i] = topology.NodeID(i)
		}
		w := NewWorld(fab, nodes, DefaultEnv())
		nMsg := 1 + int(nMsgRaw)%8
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, nMsg)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(16*1024)
		}
		w.Run(func(r *Rank) {
			peer := r.ID() ^ 1
			for i, sz := range sizes {
				sq := r.isend(peer, 1000+i, sz, false)
				rq := r.irecv(peer, 1000+i)
				r.wait(sq)
				r.wait(rq)
			}
		})
		k.Run()
		return w.Done.Fired()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
