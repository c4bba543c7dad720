package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/tensor"
)

// TestSamplerHoldsNoAccumulators: an engine holds a loaded model once, at
// the width it serves, however many workers sample it. The live heap an
// engine with four workers adds — the artifact decoded, loaded and
// dropped, the workers having served their batches — stays under 1.25 ×
// the generators' parameter bytes at that width: no gradient
// accumulators, no copy of the artifact's encoded generators, no copy per
// worker, no float64 mixture behind a float32 one (the least of three
// builds, against background noise).
func TestSamplerHoldsNoAccumulators(t *testing.T) {
	cfg := config.Default()
	rng := tensor.NewRNG(5)
	const members = 3
	params := members * core.BuildGenerator(cfg, rng).NumParams()
	artifact := func() *checkpoint.MixtureArtifact {
		a := &checkpoint.MixtureArtifact{Cfg: cfg}
		for r := 0; r < members; r++ {
			blob, err := core.BuildGenerator(cfg, rng).EncodeParams()
			if err != nil {
				t.Fatal(err)
			}
			a.Ranks, a.Weights, a.GenParams = append(a.Ranks, r), append(a.Weights, 1.0/members), append(a.GenParams, blob)
		}
		return a
	}
	for _, tc := range []struct {
		name  string
		f32   bool
		width int
	}{{"float64", false, 8}, {"float32", true, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			held := ^uint64(0)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				e, err := NewEngine("m", artifact(), EngineConfig{Workers: 4, MaxBatchSamples: 1, Float32: tc.f32}, nil)
				if err != nil {
					t.Fatal(err)
				}
				// One-sample batches from eight callers at once keep every
				// worker busy.
				var wg sync.WaitGroup
				for c := 0; c < 8; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 4; i++ {
							if _, err := e.Generate(context.Background(), 1); err != nil {
								t.Error(err)
							}
						}
					}()
				}
				wg.Wait()
				runtime.GC()
				runtime.ReadMemStats(&after)
				e.Close()
				held = min(held, after.HeapAlloc-min(after.HeapAlloc, before.HeapAlloc))
			}
			t.Logf("%s: %d bytes held, %.2f × the parameter bytes", tc.name, held, float64(held)/float64(tc.width*params))
			if limit := uint64(1.25 * float64(tc.width*params)); held > limit {
				t.Fatalf("a %s engine holds %d bytes for %d parameter bytes", tc.name, held, tc.width*params)
			}
		})
	}
}
