package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the simlint command: with
// SIMLINT_MAIN=1 in its environment it runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("SIMLINT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownAllowReported runs the command over a fixture whose only
// findings are directives no analyzer reads: a //simlint:allow naming an
// analyzer outside the suite, and the retired hotpath analyzer's
// //simlint:hotpath and //simlint:cold lines. Each must be reported at
// its line and fail the run, and the allow naming a live analyzer must
// be left alone.
func TestUnknownAllowReported(t *testing.T) {
	cmd := exec.Command(os.Args[0], "./testdata/stale")
	cmd.Env = append(os.Environ(), "SIMLINT_MAIN=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("simlint exit: %v, want status 1; output:\n%s", err, out)
	}
	want := `testdata/stale/stale.go:12:24: //simlint:allow names unknown analyzer "detflow"; the directive suppresses nothing (simlint)
testdata/stale/stale.go:18:1: //simlint:hotpath is read by no analyzer in the suite; the directive does nothing (simlint)
testdata/stale/stale.go:21:1: //simlint:cold is read by no analyzer in the suite; the directive does nothing (simlint)`
	if got := strings.TrimSpace(string(out)); got != want {
		t.Errorf("simlint output:\n%s\nwant:\n%s", got, want)
	}
}
