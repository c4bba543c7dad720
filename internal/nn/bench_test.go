package nn

import (
	"testing"

	"cellgan/internal/tensor"
)

// paperGenerator builds the Table I generator for benchmarking.
func paperGenerator(b *testing.B) (*Network, *tensor.Mat) {
	b.Helper()
	rng := tensor.NewRNG(1)
	net := MLP([]int{64, 256, 256, 784}, func() Layer { return NewTanh() },
		func() Layer { return NewTanh() }, rng)
	z := tensor.New(100, 64)
	tensor.GaussianFill(z, 0, 1, rng)
	return net, z
}

func BenchmarkGeneratorForwardWS(b *testing.B) {
	net, z := paperGenerator(b)
	ws := NewWorkspace()
	net.ForwardWS(ws, z) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.ForwardWS(ws, z)
	}
}

func BenchmarkGeneratorForwardBackwardWS(b *testing.B) {
	net, z := paperGenerator(b)
	y := tensor.New(100, 784)
	ws := NewWorkspace()
	grad := new(tensor.Mat)
	iter := func() {
		net.ZeroGrads()
		out := net.ForwardWS(ws, z)
		_, _ = MSELossInto(grad, out, y)
		net.BackwardWS(ws, grad)
	}
	iter() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// BenchmarkGeneratorForward32 is the float32 serving-tier counterpart of
// BenchmarkGeneratorForwardWS: the same Table I generator narrowed to a
// Net32, batch 100.
func BenchmarkGeneratorForward32(b *testing.B) {
	net, z := paperGenerator(b)
	c, ws, x32 := net.Narrow(), new(WorkspaceOf[float32]), tensor.Narrow(z)
	c.ForwardWS(ws, x32) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ForwardWS(ws, x32)
	}
}

func BenchmarkAdamStepPaperGenerator(b *testing.B) {
	net, z := paperGenerator(b)
	opt := NewAdam(2e-4)
	y := tensor.New(100, 784)
	net.ZeroGrads()
	ws := NewWorkspace()
	out := net.ForwardWS(ws, z)
	_, grad := MSELossInto(new(tensor.Mat), out, y)
	net.BackwardWS(ws, grad)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(net)
	}
}

func BenchmarkBCEWithLogits(b *testing.B) {
	rng := tensor.NewRNG(2)
	z := tensor.New(100, 1)
	tensor.GaussianFill(z, 0, 2, rng)
	y := tensor.Full(100, 1, 1)
	for i := 0; i < b.N; i++ {
		_, _ = BCEWithLogitsLossInto(new(tensor.Mat), z, y)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := tensor.NewRNG(3)
	logits := tensor.New(100, 10)
	tensor.GaussianFill(logits, 0, 2, rng)
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 10
	}
	for i := 0; i < b.N; i++ {
		_, _ = SoftmaxCrossEntropy(logits, labels)
	}
}

func BenchmarkEncodeDecodeParams(b *testing.B) {
	net, _ := paperGenerator(b)
	data, err := net.EncodeParams()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := net.EncodeParams()
		if err != nil {
			b.Fatal(err)
		}
		if err := net.DecodeParams(data); err != nil {
			b.Fatal(err)
		}
	}
}
