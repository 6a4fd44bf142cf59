// Package workload models the production job mix of the paper's systems:
// the Theta job-size distribution behind Fig. 1 (≈40% of core-hours from
// 128-512 node jobs), job durations, and the traffic character of
// background jobs used to emulate production network noise.
package workload

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/sim"
)

// SizeBucket is one job-size class with its share of machine core-hours.
type SizeBucket struct {
	Nodes          int
	CoreHourWeight float64
}

// Mix is a job-size and duration distribution.
type Mix struct {
	Buckets []SizeBucket
	// MeanDuration is the mean job wallclock; durations are sampled
	// uniformly in [0.5, 1.5) x mean.
	MeanDuration sim.Time
}

// ThetaMix reproduces the paper's Fig. 1: the 128-512 node range carries
// ~40% of core-hours, with meaningful mass both below and far above.
func ThetaMix() Mix {
	return Mix{
		Buckets: []SizeBucket{
			{32, 0.03}, {64, 0.05},
			{128, 0.15}, {256, 0.15}, {384, 0.04}, {512, 0.06},
			{640, 0.07}, {896, 0.07}, {1024, 0.06},
			{1536, 0.10}, {2048, 0.08},
			{2816, 0.06}, {3456, 0.04}, {4224, 0.04},
		},
		MeanDuration: 2 * sim.Second, // scaled-down production hours
	}
}

// SampleJob draws one job instance. Instance frequency is core-hour weight
// divided by node count, so that core-hours (not job counts) follow the
// bucket weights.
func (m Mix) SampleJob(rng *rand.Rand) (nodes int, duration sim.Time) {
	total := 0.0
	for _, b := range m.Buckets {
		total += b.CoreHourWeight / float64(b.Nodes)
	}
	x := rng.Float64() * total
	nodes = m.Buckets[len(m.Buckets)-1].Nodes
	for _, b := range m.Buckets {
		x -= b.CoreHourWeight / float64(b.Nodes)
		if x <= 0 {
			nodes = b.Nodes
			break
		}
	}
	duration = sim.Time(float64(m.MeanDuration) * (0.5 + rng.Float64()))
	return nodes, duration
}

// TrafficClass describes how intense a background job's communication is.
type TrafficClass struct {
	Pattern  apps.NoisePattern
	MsgBytes int
	Gap      sim.Time
	Weight   float64
}

// DefaultTrafficClasses is the production-noise mixture: mostly moderate
// local and global traffic, a minority of heavy global flows and incast.
// Intensities average 1-2.5 GB/s per node — busy-production levels where
// adaptive routing decisions actually matter (an idle network makes every
// bias equivalent, see Section II-D of the paper).
func DefaultTrafficClasses() []TrafficClass {
	return []TrafficClass{
		{apps.NoiseUniform, 64 * 1024, 75 * sim.Microsecond, 0.45},
		{apps.NoiseShift, 64 * 1024, 100 * sim.Microsecond, 0.25},
		{apps.NoiseStencil, 64 * 1024, 75 * sim.Microsecond, 0.15},
		{apps.NoiseUniform, 128 * 1024, 175 * sim.Microsecond, 0.10},
		{apps.NoiseHotspot, 32 * 1024, 200 * sim.Microsecond, 0.05},
	}
}

// SampleTraffic draws one traffic class according to the weights.
func SampleTraffic(classes []TrafficClass, rng *rand.Rand) TrafficClass {
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	x := rng.Float64() * total
	for _, c := range classes {
		x -= c.Weight
		if x <= 0 {
			return c
		}
	}
	return classes[len(classes)-1]
}
