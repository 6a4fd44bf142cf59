// Command reproduce regenerates every table and figure from the paper's
// evaluation section and writes the rendered text artifacts.
//
// Usage:
//
//	reproduce [-profile quick|standard] [-exp all|t2family|fig1|table1|fig2|...] [-seed N] [-j N] [-out DIR]
//	          [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// With -out set, each experiment's output is also written to
// DIR/<exp>.txt. Figures 2/5/6/7/8 are derived from the Table II
// production campaign, so requesting any of them runs that campaign once
// ("-exp t2family" renders all six); fig13 and fig14 likewise share one
// pair of campaigns.
//
// -j sets how many runs execute concurrently (default: all CPUs). Each
// worker simulates on its own machine instance (reused warm across the
// runs assigned to its slot) and results are merged in seed order, so
// the output is identical for every -j value.
//
// -cpuprofile / -memprofile / -trace write pprof CPU and heap profiles and
// a runtime execution trace covering the selected experiments (see
// internal/profiling); pair them with -exp to profile one campaign in
// isolation. Ensemble worker goroutines carry the pprof label
// worker=<slot>, so per-slot time splits are one `pprof -tagfocus
// worker=N` (or the trace viewer's goroutine grouping) away.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/profiling"
)

// renderer produces one experiment's text.
type renderer interface{ Render() string }

// entry is one campaign: the artifacts it renders, in output order, and
// the run that produces them (one renderer per name). An entry that
// renders several artifacts runs its campaign once for all of them.
type entry struct {
	names []string
	run   func(p experiments.Profile, seed int64) ([]renderer, error)
}

// one adapts a single-artifact harness to an entry's run.
func one[R renderer](h func(experiments.Profile, int64) (R, error)) func(experiments.Profile, int64) ([]renderer, error) {
	return func(p experiments.Profile, seed int64) ([]renderer, error) {
		r, err := h(p, seed)
		if err != nil {
			return nil, err
		}
		return []renderer{r}, nil
	}
}

// table lists every campaign in output order. The Table II production
// campaign also feeds Figs. 2, 5, 6, 7 and 8; "-exp t2family" selects
// all of its artifacts.
var table = []entry{
	{[]string{"fig1"}, func(p experiments.Profile, seed int64) ([]renderer, error) {
		return []renderer{experiments.Fig1JobSizes(p, seed)}, nil
	}},
	{[]string{"table1"}, one(experiments.Table1Characterization)},
	{[]string{"table2", "fig2", "fig5", "fig6", "fig7", "fig8"},
		func(p experiments.Profile, seed int64) ([]renderer, error) {
			t2, err := experiments.Table2AllApps(p, seed)
			if err != nil {
				return nil, err
			}
			return []renderer{t2,
				experiments.Fig2FromSamples(t2.Nodes, t2.Samples),
				experiments.Fig5FromSamples(t2.Samples),
				experiments.Fig6FromTable2(t2),
				experiments.Fig7NormalizedAllApps(t2),
				experiments.Fig8HACCBreakdown(t2)}, nil
		}},
	{[]string{"fig3"}, one(experiments.Fig3GroupsSpanned)},
	{[]string{"fig4"}, one(experiments.Fig4CoriGroupsSpanned)},
	{[]string{"fig9"}, one(experiments.Fig9ControlledAllModes)},
	{[]string{"fig10"}, one(experiments.Fig10MILCEnsembleCounters)},
	{[]string{"fig11"}, one(experiments.Fig11RegimeComparison)},
	{[]string{"fig12"}, one(experiments.Fig12HACCEnsembleCounters)},
	{[]string{"fig13", "fig14"}, func(p experiments.Profile, seed int64) ([]renderer, error) {
		r, err := experiments.Fig13DefaultSwitch(p, seed)
		if err != nil {
			return nil, err
		}
		return []renderer{r, experiments.Fig14LatencyPercentiles(r)}, nil
	}},
}

// t2family is the -exp value naming the Table II entry's artifacts.
const t2family = "t2family"

// selection returns the artifact names -exp picks: every artifact for
// "all", the Table II entry's for "t2family", else the one named. It is
// empty for an unknown name.
func selection(exp string) map[string]bool {
	sel := map[string]bool{}
	for _, e := range table {
		for _, name := range e.names {
			if exp == "all" || exp == name || (exp == t2family && e.names[0] == "table2") {
				sel[name] = true
			}
		}
	}
	return sel
}

// validNames lists every accepted -exp value.
func validNames() string {
	names := []string{"all", t2family}
	for _, e := range table {
		names = append(names, e.names...)
	}
	return strings.Join(names, " ")
}

var profiles = profiling.Register(flag.CommandLine)

func main() {
	profileName := flag.String("profile", "quick", "experiment scale: quick or standard")
	exp := flag.String("exp", "all", "experiment to run: all, t2family, fig1, table1, table2, fig2..fig14")
	seed := flag.Int64("seed", 1, "base random seed")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel runs per campaign (output is identical for any value)")
	out := flag.String("out", "", "directory for text artifacts (optional)")
	flag.Parse()

	if err := profiles.Start(); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	var p experiments.Profile
	switch *profileName {
	case "quick":
		p = experiments.Quick()
	case "standard":
		p = experiments.Standard()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profileName)
		stopProfiles()
		os.Exit(2)
	}
	p.Workers = parallel.Workers(*jobs)

	sel := selection(*exp)
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, validNames())
		stopProfiles()
		os.Exit(2)
	}
	for _, e := range table {
		if !slices.ContainsFunc(e.names, func(n string) bool { return sel[n] }) {
			continue
		}
		label := strings.Join(e.names, "+")
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== %s (%s profile) ==\n", label, p.Name)
		rs, err := e.run(p, *seed)
		if err != nil {
			fatal(err)
		}
		for i, name := range e.names {
			if sel[name] {
				emit(*out, name, rs[i].Render())
			}
		}
		fmt.Fprintf(os.Stderr, "== %s done in %.1fs ==\n", label, time.Since(start).Seconds())
	}
}

// emit prints one artifact and, with dir set, writes it to dir/name.txt.
func emit(dir, name, text string) {
	fmt.Println(text)
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(text), 0o644); err != nil {
		fatal(err)
	}
}

// stopProfiles flushes the profiles; os.Exit paths call it explicitly,
// since deferred calls do not run there.
func stopProfiles() {
	if err := profiles.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	stopProfiles()
	os.Exit(1)
}
