// Command reproduce regenerates every table and figure from the paper's
// evaluation section and writes the rendered text artifacts.
//
// Usage:
//
//	reproduce [-profile quick|standard] [-exp all|fig1|table1|fig2|...] [-seed N] [-j N] [-out DIR]
//	          [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// With -out set, each experiment's output is also written to
// DIR/<exp>.txt. Figures 2/5/6/7/8 are derived from the Table II
// production campaign, so requesting any of them runs that campaign once.
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
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/profiling"
)

// renderer produces one experiment's text.
type renderer interface{ Render() string }

var profiles = profiling.Register(flag.CommandLine)

func main() {
	profileName := flag.String("profile", "quick", "experiment scale: quick or standard")
	exp := flag.String("exp", "all", "experiment to run: all, fig1, table1, fig2..fig14, table2")
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

	// "t2family" regenerates the six artifacts derived from the Table II
	// production campaign in one pass.
	t2family := map[string]bool{"table2": true, "fig2": true, "fig5": true,
		"fig6": true, "fig7": true, "fig8": true}
	want := func(name string) bool {
		if *exp == "t2family" && t2family[name] {
			return true
		}
		return *exp == "all" || *exp == name
	}
	emit := func(name string, r renderer) {
		text := r.Render()
		fmt.Println(text)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*out, name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	step := func(name string) func() {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== %s (%s profile) ==\n", name, p.Name)
		return func() {
			fmt.Fprintf(os.Stderr, "== %s done in %.1fs ==\n", name, time.Since(start).Seconds())
		}
	}

	ran := 0
	if want("fig1") {
		done := step("fig1")
		emit("fig1", experiments.Fig1JobSizes(p, *seed))
		done()
		ran++
	}
	if want("table1") {
		done := step("table1")
		r, err := experiments.Table1Characterization(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("table1", r)
		done()
		ran++
	}

	// The Table II campaign also feeds Figs. 2, 5, 6, 7 and 8.
	needT2 := false
	for _, n := range []string{"table2", "fig2", "fig5", "fig6", "fig7", "fig8"} {
		if want(n) {
			needT2 = true
		}
	}
	if needT2 {
		done := step("table2 campaign")
		t2, err := experiments.Table2AllApps(p, *seed)
		if err != nil {
			fatal(err)
		}
		done()
		if want("table2") {
			emit("table2", t2)
			ran++
		}
		if want("fig2") {
			emit("fig2", experiments.Fig2FromSamples(t2.Nodes, t2.Samples))
			ran++
		}
		if want("fig5") {
			emit("fig5", experiments.Fig5FromSamples(t2.Samples))
			ran++
		}
		if want("fig6") {
			emit("fig6", experiments.Fig6FromTable2(t2))
			ran++
		}
		if want("fig7") {
			emit("fig7", experiments.Fig7NormalizedAllApps(t2))
			ran++
		}
		if want("fig8") {
			emit("fig8", experiments.Fig8HACCBreakdown(t2))
			ran++
		}
	}

	if want("fig3") {
		done := step("fig3")
		r, err := experiments.Fig3GroupsSpanned(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("fig3", r)
		done()
		ran++
	}
	if want("fig4") {
		done := step("fig4")
		r, err := experiments.Fig4CoriGroupsSpanned(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("fig4", r)
		done()
		ran++
	}
	if want("fig9") {
		done := step("fig9")
		r, err := experiments.Fig9ControlledAllModes(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("fig9", r)
		done()
		ran++
	}
	if want("fig10") {
		done := step("fig10")
		r, err := experiments.Fig10MILCEnsembleCounters(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("fig10", r)
		done()
		ran++
	}
	if want("fig11") {
		done := step("fig11")
		r, err := experiments.Fig11RegimeComparison(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("fig11", r)
		done()
		ran++
	}
	if want("fig12") {
		done := step("fig12")
		r, err := experiments.Fig12HACCEnsembleCounters(p, *seed)
		if err != nil {
			fatal(err)
		}
		emit("fig12", r)
		done()
		ran++
	}
	if want("fig13") || want("fig14") {
		done := step("fig13+fig14 campaigns")
		r, err := experiments.Fig13DefaultSwitch(p, *seed)
		if err != nil {
			fatal(err)
		}
		done()
		if want("fig13") {
			emit("fig13", r)
			ran++
		}
		if want("fig14") {
			emit("fig14", experiments.Fig14LatencyPercentiles(r))
			ran++
		}
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all fig1..fig14 table1 table2\n", *exp)
		stopProfiles()
		os.Exit(2)
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
