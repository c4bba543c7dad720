package experiments

import (
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cellgan/internal/config"
)

func TestTableIContainsPaperSettings(t *testing.T) {
	out := TableI(config.Default())
	for _, want := range []string{"Table I", "Input neurons", "64", "tanh", "0.0002", "Batch size", "100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIMatchesPaperTaskCounts(t *testing.T) {
	out, err := TableII([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2×2", "3×3", "4×4", "5", "10", "17"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

// measured is one Measure at 2×2 with two runs per mode, shared by the
// tests of the artefacts it feeds.
var measured = sync.OnceValues(func() (*Measurement, error) {
	return Measure(TinyJobConfig(), []int{2}, 2)
})

func measurement(t *testing.T) *Measurement {
	t.Helper()
	m, err := measured()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// columnGap separates the cells of a rendered report.Table row.
var columnGap = regexp.MustCompile(`\s{2,}`)

// cells returns the cells of the rendered table row that starts with first.
func cells(t *testing.T, out, first string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := columnGap.Split(strings.TrimSpace(line), -1); len(f) > 1 && f[0] == first {
			return f
		}
	}
	t.Fatalf("no row %q in:\n%s", first, out)
	return nil
}

// positive parses an "avg±std" or plain number cell and requires a
// positive value.
func positive(t *testing.T, cell string) {
	t.Helper()
	v, err := strconv.ParseFloat(strings.SplitN(cell, "±", 2)[0], 64)
	if err != nil || v <= 0 {
		t.Fatalf("measured cell %q is not a positive number", cell)
	}
}

// checkTableIII requires the paper's three speedups and a positive
// measured 2×2 row.
func checkTableIII(t *testing.T, out string) {
	t.Helper()
	for side, paper := range map[string]string{"2×2": "8.53", "3×3": "13.65", "4×4": "15.17"} {
		if row := cells(t, out, side); row[3] != paper {
			t.Fatalf("%s paper speedup %q, want %s:\n%s", side, row[3], paper, out)
		}
	}
	for _, c := range cells(t, out, "2×2")[4:] {
		positive(t, c)
	}
}

// checkTableIV requires the paper's routine speedups, and non-zero
// measured train and update-genomes times in both modes.
func checkTableIV(t *testing.T, out string) {
	t.Helper()
	for routine, paper := range map[string]string{"gather": "1.00", "train": "6.05",
		"update genomes": "11.87", "mutate": "1.43", "overall": "5.21"} {
		row := cells(t, out, routine)
		if row[3] != paper {
			t.Fatalf("%s paper speedup %q, want %s:\n%s", routine, row[3], paper, out)
		}
		if routine == "train" || routine == "update genomes" || routine == "overall" {
			positive(t, row[4])
			positive(t, row[5])
		}
	}
}

// checkFig4 requires both bars of train and update genomes to be
// positive, and no overall group.
func checkFig4(t *testing.T, out string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for _, routine := range []string{"train", "update genomes"} {
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, routine+"  ") })
		if i < 0 || i+1 >= len(lines) {
			t.Fatalf("Fig 4 has no %s group:\n%s", routine, out)
		}
		for _, l := range lines[i : i+2] {
			f := strings.Fields(l)
			positive(t, f[len(f)-2])
		}
	}
	if strings.Contains(out, "overall") {
		t.Fatal("Fig 4 should not chart the overall row")
	}
}

func TestTableIIIShowsSpeedups(t *testing.T) {
	out := TableIII(measurement(t))
	for _, want := range []string{"measured", "GOMAXPROCS", runtime.Version()} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III missing %q:\n%s", want, out)
		}
	}
	checkTableIII(t, out)
}

func TestTableIVShowsRoutines(t *testing.T) {
	out := TableIV(measurement(t))
	if !strings.Contains(out, "per slave") {
		t.Fatalf("Table IV title does not say the job column is per slave:\n%s", out)
	}
	checkTableIV(t, out)
}

func TestFig1ShowsOverlappingNeighborhoods(t *testing.T) {
	out := Fig1()
	if strings.Count(out, " C ") != 2 {
		t.Fatalf("want two centers:\n%s", out)
	}
	if strings.Count(out, " N ") != 8 {
		t.Fatalf("want 8 neighbours total:\n%s", out)
	}
}

func TestFig2TraceReachesFinished(t *testing.T) {
	out := Fig2(measurement(t).Sides[0].LastJob)
	if !strings.Contains(out, "[inactive]") || !strings.Contains(out, "[processing]") || !strings.Contains(out, "[finished]") {
		t.Fatalf("static diagram incomplete:\n%s", out)
	}
	if !strings.Contains(out, "-> finished") {
		t.Fatalf("no observed finished transition:\n%s", out)
	}
}

func TestFig3LogCoversFlow(t *testing.T) {
	out := Fig3(measurement(t).Sides[0].LastJob)
	for _, want := range []string{"gathered", "placed", "run task", "collecting results", "best cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig 3 log missing %q:\n%s", want, out)
		}
	}
}

func TestFig4RendersBars(t *testing.T) {
	out, err := Fig4(measurement(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gather", "#", "ms", "measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig 4 missing %q:\n%s", want, out)
		}
	}
	checkFig4(t, out)
}

func TestAllProducesEveryArtefact(t *testing.T) {
	out, err := All([]int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]string{}
	for _, part := range strings.Split(out, "\n\n") {
		for _, name := range []string{"Table I ", "Table II ", "Table III", "Table IV", "Fig 1", "Fig 2", "Fig 3", "Fig 4"} {
			if strings.HasPrefix(part, name) {
				parts[name] = part
			}
		}
	}
	if len(parts) != 8 {
		t.Fatalf("All() has %d of 8 artefacts:\n%s", len(parts), out)
	}
	checkTableIII(t, parts["Table III"])
	checkTableIV(t, parts["Table IV"])
	checkFig4(t, parts["Fig 4"])
}
