package serve

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestFloat32EngineMatchesFloat64 runs the same trained artifact through a
// float64 engine and a float32 engine with identical seeds. The float32
// tier consumes the RNG stream exactly as the float64 path does, so the
// sample batches line up row for row and differ only by float32 forward
// precision.
func TestFloat32EngineMatchesFloat64(t *testing.T) {
	a := trainedArtifact(t)
	mk := func(f32 bool) *Engine {
		e, err := NewEngine("digits", a, EngineConfig{
			Workers:   1,
			Seed:      42,
			BatchWait: time.Millisecond,
			Float32:   f32,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	e64 := mk(false)
	e32 := mk(true)

	const n = 16
	want, err := e64.Generate(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e32.Generate(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("float32 batch %d×%d, float64 %d×%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	maxd := 0.0
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-4 {
		t.Fatalf("float32 engine drifts %g from float64 (want float32-precision agreement)", maxd)
	}
	if maxd == 0 {
		t.Fatal("float32 and float64 outputs are bitwise identical — the float32 tier is not actually in use")
	}
}
