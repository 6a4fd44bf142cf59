package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostContext is recorded beside every result so that a noisy-neighbour
// phase (steal time on a shared VM) is visible next to the numbers.
type hostContext struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Wseed      int64   `json:"wseed"`
	Ops        int     `json:"ops"`
	Seconds    int     `json:"seconds"`
	WindowS    float64 `json:"window_s"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// StealShare is the fraction of all CPU time the hypervisor stole
	// during the timed window, from /proc/stat; -1 where unreadable.
	StealShare float64 `json:"steal_share"`
	// CPUS is the process's user+system CPU seconds over the window.
	CPUS float64 `json:"cpu_s"`
	// HostFactor is the median host factor over the ops (hostref.go),
	// above 1 when the host ran slower than the reference host does.
	HostFactor float64 `json:"host_factor,omitempty"`
	// Raw holds the end-to-end times before the host factor divides them.
	Raw *rawFigures `json:"raw,omitempty"`

	stat0 []uint64
	cpu0  float64
}

type rawFigures struct {
	OpsPerS float64 `json:"ops_per_s"`
	OpP50MS float64 `json:"op_p50_ms"`
	SetupS  float64 `json:"setup_s"`
}

func (h *hostContext) begin() {
	h.NProc = runtime.NumCPU()
	h.GOMAXPROCS = runtime.GOMAXPROCS(0)
	h.GoVersion = runtime.Version()
	h.stat0 = cpuStat()
	h.cpu0 = processCPUS()
}

func (h *hostContext) end(windowS float64) {
	h.WindowS = windowS
	h.CPUS = processCPUS() - h.cpu0
	h.StealShare = -1
	stat1 := cpuStat()
	if len(h.stat0) < 8 || len(stat1) < 8 {
		return
	}
	var total uint64
	for i := range stat1 {
		total += stat1[i] - h.stat0[i]
	}
	if total > 0 {
		h.StealShare = float64(stat1[7]-h.stat0[7]) / float64(total)
	}
}

// processCPUS is the process's user+system CPU time in seconds.
func processCPUS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuStat reads the aggregate "cpu" line of /proc/stat (user nice system
// idle iowait irq softirq steal ...); nil where unavailable.
func cpuStat() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
