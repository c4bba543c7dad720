package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkEngineGenerate measures the raw sampling engine without HTTP:
// concurrent callers coalescing into shared forward passes.
func BenchmarkEngineGenerate(b *testing.B) {
	e, err := NewEngine("digits", trainedArtifact(b), EngineConfig{Workers: 2, BatchWait: 200 * time.Microsecond, QueueSize: 1024}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Generate(context.Background(), 4); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(4*b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(e.metrics.LatencyQuantile(0.99)*1e3, "p99-ms")
}

// BenchmarkServeLoopback is the serving baseline: the full HTTP path over
// loopback — JSON decode, batched sampling, JSON encode — driven by the
// load-test harness. The reported samples/s figure is the first entry of
// the serving trajectory in the bench history.
func BenchmarkServeLoopback(b *testing.B) {
	reg := NewRegistry(EngineConfig{Workers: 2, QueueSize: 1024}, nil)
	if err := reg.Load("digits", trainedArtifact(b)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, 30*time.Second))
	defer func() {
		ts.Close()
		reg.Close()
	}()
	b.ResetTimer()
	res, err := LoadTest(ts.URL, LoadTestOptions{Clients: 8, Requests: b.N, N: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Errors > 0 {
		b.Fatalf("%d errors during bench", res.Errors)
	}
	b.ReportMetric(res.SamplesPerSec, "samples/s")
	b.ReportMetric(res.RPS, "req/s")
	b.ReportMetric(float64(res.P99.Microseconds())/1e3, "p99-ms")
}
