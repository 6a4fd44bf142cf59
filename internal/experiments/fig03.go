package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/stats"
)

// GroupsPoint is one run plotted on the groups-spanned axis.
type GroupsPoint struct {
	Groups     int
	Mode       routing.Mode
	Normalized float64 // Z-score within (app, size), pooled across modes
}

// Fig3Result reproduces the paper's Fig. 3: MILC and MILCREORDER
// normalized runtimes at three job sizes, ordered by the number of
// dragonfly groups the placement spans, AD0 vs AD3.
type Fig3Result struct {
	// Figure is the paper figure the result reproduces ("Fig. 3" on
	// Theta, "Fig. 4" on Cori), the title's label.
	Figure  string
	Machine string
	// Points[app][nodes] lists the per-run normalized samples.
	Points map[string]map[int][]GroupsPoint
	// MeanImprovement[app][nodes] is AD3's mean runtime improvement.
	MeanImprovement map[string]map[int]float64
	Sizes           []int
	Apps            []string
}

// Fig3GroupsSpanned runs the production campaigns at all three sizes.
func Fig3GroupsSpanned(p Profile, seed int64) (*Fig3Result, error) {
	ms, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	return groupsSpannedStudy(ms, "Fig. 3", "Theta", p,
		[]apps.App{apps.MILC{}, apps.MILC{Reorder: true}},
		[]int{p.NodesSmall, p.NodesMedium, p.NodesLarge}, seed)
}

// groupsSpannedStudy is shared with Fig. 4 (Cori).
func groupsSpannedStudy(ms []*core.Machine, figure, machine string, p Profile,
	appList []apps.App, sizes []int, seed int64) (*Fig3Result, error) {

	res := &Fig3Result{
		Figure:          figure,
		Machine:         machine,
		Points:          map[string]map[int][]GroupsPoint{},
		MeanImprovement: map[string]map[int]float64{},
		Sizes:           sizes,
	}
	modes := []routing.Mode{routing.AD0, routing.AD3}
	for _, a := range appList {
		res.Apps = append(res.Apps, a.Name())
		res.Points[a.Name()] = map[int][]GroupsPoint{}
		res.MeanImprovement[a.Name()] = map[int]float64{}
		for _, nodes := range sizes {
			// Keep each run's runtime (pooled, in sample order, and per
			// mode) beside its point until the pooled moments are known.
			var pooled []float64
			perMode := map[routing.Mode][]float64{}
			pts := make([]GroupsPoint, 0, p.Runs*len(modes))
			err := production(context.Background(), ms, p, a, nodes, modes,
				core.DefaultBackground(), seed+int64(nodes), func(s *Sample) {
					pooled = append(pooled, s.RuntimeSec)
					perMode[s.Mode] = append(perMode[s.Mode], s.RuntimeSec)
					pts = append(pts, GroupsPoint{Groups: s.Groups, Mode: s.Mode})
				})
			if err != nil {
				return nil, err
			}
			// Z-score against the pooled mean of both modes (the
			// paper's normalization for a given job size).
			mean, std := stats.MeanStd(pooled)
			for i, z := range stats.ZScoresAgainst(pooled, mean, std) {
				pts[i].Normalized = z
			}
			sort.Slice(pts, func(i, j int) bool { return pts[i].Groups < pts[j].Groups })
			res.Points[a.Name()][nodes] = pts
			res.MeanImprovement[a.Name()][nodes] =
				stats.PercentImprovement(perMode[routing.AD0], perMode[routing.AD3])
		}
	}
	return res, nil
}

// Render prints per-size scatter rows ordered by groups spanned.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — normalized runtime vs groups spanned (%s)\n", r.Figure, r.Machine)
	for _, app := range r.Apps {
		for _, nodes := range r.Sizes {
			fmt.Fprintf(&b, "%s @ %d nodes (AD3 mean improvement %.1f%%):\n",
				app, nodes, r.MeanImprovement[app][nodes])
			for _, pt := range r.Points[app][nodes] {
				fmt.Fprintf(&b, "  groups=%-3d %-4s z=%+.2f\n", pt.Groups, pt.Mode, pt.Normalized)
			}
		}
	}
	return b.String()
}
