package workload

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

func TestThetaMixShape(t *testing.T) {
	total, in, covered := 0.0, 0.0, 0.0
	for _, b := range ThetaMix().Buckets {
		total += b.CoreHourWeight
		if b.Nodes >= 128 && b.Nodes <= 512 {
			in += b.CoreHourWeight
		}
		if b.Nodes >= 1 && b.Nodes <= 4224 {
			covered += b.CoreHourWeight
		}
	}
	// The paper: ~40% of core-hours from 128-512 node jobs.
	if frac := in / total; frac < 0.35 || frac > 0.45 {
		t.Errorf("128-512 core-hour fraction = %.2f, want ~0.40", frac)
	}
	if covered/total < 0.999 {
		t.Error("weights do not cover all sizes")
	}
}

func TestSampleJobDistribution(t *testing.T) {
	m := ThetaMix()
	rng := rand.New(rand.NewSource(1))
	coreHours := map[int]float64{}
	total := 0.0
	for i := 0; i < 20000; i++ {
		nodes, dur := m.SampleJob(rng)
		if dur < m.MeanDuration/2 || dur > m.MeanDuration*3/2 {
			t.Fatalf("duration %v outside [0.5, 1.5) x mean", dur)
		}
		ch := float64(nodes) * dur.Seconds()
		coreHours[nodes] += ch
		total += ch
	}
	// Empirical core-hour share of the 128-512 range should approach the
	// configured 40%.
	in := 0.0
	for nodes, ch := range coreHours {
		if nodes >= 128 && nodes <= 512 {
			in += ch
		}
	}
	got := in / total
	if got < 0.32 || got > 0.48 {
		t.Errorf("sampled 128-512 share = %.3f, want ~0.40", got)
	}
}

func TestSampleTraffic(t *testing.T) {
	classes := DefaultTrafficClasses()
	rng := rand.New(rand.NewSource(3))
	counts := map[apps.NoisePattern]int{}
	for i := 0; i < 5000; i++ {
		c := SampleTraffic(classes, rng)
		counts[c.Pattern]++
		if c.MsgBytes <= 0 || c.Gap <= 0 {
			t.Fatalf("bad class %+v", c)
		}
	}
	// Stencil (0.35) should be sampled more than hotspot (0.05).
	if counts[apps.NoiseStencil] <= counts[apps.NoiseHotspot] {
		t.Errorf("sampling weights broken: %v", counts)
	}
}

func TestSampleTrafficSingleClass(t *testing.T) {
	only := []TrafficClass{{apps.NoiseUniform, 1024, sim.Microsecond, 1}}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		if c := SampleTraffic(only, rng); c.Pattern != apps.NoiseUniform {
			t.Fatal("single-class sampling broken")
		}
	}
}
