package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenProfile runs the golden experiments with a parallel pool: the
// checked-in bytes were produced with Workers=4, so any nondeterminism
// introduced into the runner shows up as a golden diff. It is pinned to
// the Bench scale (not testProfile) so -short runs compare against the
// same bytes.
func goldenProfile() Profile {
	p := Bench()
	p.Name = "test"
	p.Workers = 4
	return p
}

// checkGolden compares rendered experiment text against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun the test with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenFig1CCDF(t *testing.T) {
	checkGolden(t, "fig1", Fig1JobSizes(goldenProfile(), 1).Render())
}

func TestGoldenTable1(t *testing.T) {
	r, err := Table1Characterization(goldenProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", r.Render())
}

func TestGoldenFig6TileRatios(t *testing.T) {
	checkGolden(t, "fig6", Fig6FromTable2(milcStudy(t, goldenProfile(), 1, false)).Render())
}
