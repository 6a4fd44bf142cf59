// Package profiling gives every command the same three profiling flags:
// -cpuprofile and -memprofile write pprof CPU and heap profiles, and
// -trace a runtime execution trace. Inspect them with `go tool pprof` and
// `go tool trace`.
//
//	var profiles = profiling.Register(flag.CommandLine)
//
//	func main() {
//		flag.Parse()
//		if err := profiles.Start(); err != nil { ... }
//		defer profiles.Stop()
//		...
//	}
//
// Stop must also run before any os.Exit, where deferred calls do not.
package profiling

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles is one command run's profiling request and the files it has
// open.
type Profiles struct {
	cpuPath, memPath, tracePath *string

	cpu, trace *os.File // open while the CPU profile or trace runs
	stopped    bool
}

// Register adds -cpuprofile, -memprofile and -trace to fs.
func Register(fs *flag.FlagSet) *Profiles {
	return &Profiles{
		cpuPath:   fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memPath:   fs.String("memprofile", "", "write a pprof heap profile (live objects after GC) to this file at exit"),
		tracePath: fs.String("trace", "", "write a runtime execution trace to this file"),
	}
}

// Start begins the CPU profile and the execution trace the flags ask for.
// On error, whatever did start keeps running until Stop.
func (p *Profiles) Start() error {
	if *p.cpuPath != "" {
		f, err := os.Create(*p.cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		p.cpu = f
	}
	if *p.tracePath != "" {
		f, err := os.Create(*p.tracePath)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		p.trace = f
	}
	return nil
}

// Stop ends the CPU profile and the trace and writes the heap profile,
// after a forced GC so it shows live memory. Only the first call does
// anything, so a command can call it on every exit path. A failed step
// does not skip the rest; Stop returns every error met.
func (p *Profiles) Stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
	}
	if p.trace != nil {
		trace.Stop()
		errs = append(errs, p.trace.Close())
	}
	if *p.memPath != "" {
		errs = append(errs, writeHeap(*p.memPath))
	}
	return errors.Join(errs...)
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush dead objects so the profile shows live memory
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
