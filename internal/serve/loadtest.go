package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadTestOptions tunes the load generator.
type LoadTestOptions struct {
	// Clients is the number of concurrent request loops (default 16).
	Clients int
	// Requests is the total request budget across clients (default 256).
	Requests int
	// N is the samples per request (default 1).
	N int
	// Model names the target model; empty uses the server default.
	Model string
	// Timeout bounds one request on the client side (default 30 s).
	Timeout time.Duration
}

func (o LoadTestOptions) withDefaults() LoadTestOptions {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Requests <= 0 {
		o.Requests = 256
	}
	if o.N <= 0 {
		o.N = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// LoadTestResult summarises one load-test run.
type LoadTestResult struct {
	Requests int // completed OK
	Shed     int // 429 responses
	Errors   int // transport errors and non-2xx other than 429
	Elapsed  time.Duration
	// RPS and SamplesPerSec are computed over successful requests.
	RPS           float64
	SamplesPerSec float64
	// Client-observed latency percentiles over successful requests.
	P50, P90, P99, Max time.Duration
}

// String renders the result as a one-run report.
func (r *LoadTestResult) String() string {
	return fmt.Sprintf(
		"requests %d ok, %d shed, %d errors in %v\nthroughput %.1f req/s, %.1f samples/s\nlatency p50 %v  p90 %v  p99 %v  max %v",
		r.Requests, r.Shed, r.Errors, r.Elapsed.Round(time.Millisecond),
		r.RPS, r.SamplesPerSec, r.P50, r.P90, r.P99, r.Max)
}

// BenchLine renders the result as one `go test -bench`-style line
// (`BenchmarkName <iterations> <value> <unit> ...`), a summary a script
// can parse. name must not contain whitespace.
func (r *LoadTestResult) BenchLine(name string) string {
	nsPerReq := 0.0
	if r.Requests > 0 {
		nsPerReq = float64(r.Elapsed.Nanoseconds()) / float64(r.Requests)
	}
	return fmt.Sprintf("Benchmark%s %d %.0f ns/op %.2f qps %.2f samples/s %d p50-ns %d p99-ns %d max-ns %d shed %d errors",
		name, r.Requests, nsPerReq, r.RPS, r.SamplesPerSec,
		r.P50.Nanoseconds(), r.P99.Nanoseconds(), r.Max.Nanoseconds(), r.Shed, r.Errors)
}

// percentile returns the p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// LoadTest drives a running server at baseURL with concurrent /generate
// requests and reports throughput and client-observed latency
// percentiles — the serving-side analogue of the training benchmarks.
func LoadTest(baseURL string, opts LoadTestOptions) (*LoadTestResult, error) {
	opts = opts.withDefaults()
	body, err := json.Marshal(GenerateRequest{Model: opts.Model, N: opts.N, Encoding: "base64"})
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: opts.Timeout}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		shed      int
		errCount  int
	)
	next := make(chan struct{}, opts.Requests)
	for i := 0; i < opts.Requests; i++ {
		next <- struct{}{}
	}
	close(next)
	started := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				reqStart := time.Now()
				resp, err := client.Post(baseURL+"/v1/generate", "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					errCount++
					mu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch {
				case resp.StatusCode == http.StatusOK:
					latencies = append(latencies, time.Since(reqStart))
				case resp.StatusCode == http.StatusTooManyRequests:
					shed++
				default:
					errCount++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(started)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res := &LoadTestResult{
		Requests: len(latencies),
		Shed:     shed,
		Errors:   errCount,
		Elapsed:  elapsed,
		P50:      percentile(latencies, 0.50),
		P90:      percentile(latencies, 0.90),
		P99:      percentile(latencies, 0.99),
		Max:      percentile(latencies, 1),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.RPS = float64(res.Requests) / secs
		res.SamplesPerSec = float64(res.Requests*opts.N) / secs
	}
	return res, nil
}
