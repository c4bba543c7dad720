package serve

import (
	"runtime"
	"testing"

	"cellgan/internal/core"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// TestSamplerHoldsNoAccumulators: a worker's private sampler — the float64
// clone and the float32 narrow alike — holds the generators' parameters
// and nothing as large beside them: no gradient accumulators, which would
// double it. The live heap a fresh sampler adds is held under 1.25 × its
// parameter bytes (the least of three builds, against background noise).
func TestSamplerHoldsNoAccumulators(t *testing.T) {
	rng := tensor.NewRNG(5)
	tanh := func() nn.Layer { return nn.NewTanh() }
	gens := map[int]*nn.Network{}
	params := 0
	for r := 0; r < 3; r++ {
		gens[r] = nn.MLP([]int{64, 256, 256, 784}, tanh, tanh, rng)
		params += gens[r].NumParams()
	}
	proto, err := core.NewMixture(gens)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{proto: proto}
	for _, tc := range []struct {
		name  string
		f32   bool
		width int
	}{{"float64", false, 8}, {"float32", true, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			e := &Engine{cfg: EngineConfig{Float32: tc.f32}}
			held := ^uint64(0)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				s := e.newSampler(m)
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(s)
				held = min(held, after.HeapAlloc-min(after.HeapAlloc, before.HeapAlloc))
			}
			if limit := uint64(1.25 * float64(tc.width*params)); held > limit {
				t.Fatalf("a %s sampler holds %d bytes for %d parameter bytes", tc.name, held, tc.width*params)
			}
		})
	}
}
