package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWritten checks each flag yields a non-empty file and a
// second Stop is a no-op.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	p := Register(fs)
	files := map[string]string{
		"cpuprofile": filepath.Join(dir, "cpu.pprof"),
		"memprofile": filepath.Join(dir, "mem.pprof"),
		"trace":      filepath.Join(dir, "run.trace"),
	}
	var args []string
	for flagName, path := range files {
		args = append(args, "-"+flagName, path)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	for flagName, path := range files {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("-%s: %s missing or empty (%v)", flagName, path, err)
		}
	}
}

// TestStartReportsCreateError checks an unwritable path is an error, not
// a silently missing profile.
func TestStartReportsCreateError(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	p := Register(fs)
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		p.Stop()
		t.Fatal("Start succeeded writing into a missing directory")
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}
