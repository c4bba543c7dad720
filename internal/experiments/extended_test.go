package experiments

import (
	"strings"
	"testing"
)

func TestQualityTable(t *testing.T) {
	cfg := TinyJobConfig()
	cfg.Iterations = 1
	out, err := QualityTable(cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"real data", "trained mixture", "uniform noise", "inception"} {
		if !strings.Contains(out, want) {
			t.Fatalf("quality table missing %q:\n%s", want, out)
		}
	}
}

// TestDCGANTable runs the reduced-scale CNN grid through training,
// mixture export and the serving engine, end to end.
func TestDCGANTable(t *testing.T) {
	cfg := DCGANJobConfig()
	cfg.Iterations = 1
	out, err := DCGANTable(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CNN (DCGAN", "train+exchange", "best cell", "served batch", "8 samples × 784 pixels"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DCGAN table missing %q:\n%s", want, out)
		}
	}
}
