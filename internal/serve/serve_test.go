package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
)

// trainedArtifact trains a small 2×2 grid once per test binary and
// returns the exported best-cell mixture artifact.
var artifactOnce struct {
	sync.Once
	a   *checkpoint.MixtureArtifact
	err error
}

func trainedArtifact(tb testing.TB) *checkpoint.MixtureArtifact {
	tb.Helper()
	artifactOnce.Do(func() {
		cfg := config.Default().Scaled(2, 8, 100)
		res, err := core.RunSequential(cfg, core.RunOptions{})
		if err != nil {
			artifactOnce.err = err
			return
		}
		artifactOnce.a, artifactOnce.err = checkpoint.ExportMixture(res, res.BestRank)
	})
	if artifactOnce.err != nil {
		tb.Fatal(artifactOnce.err)
	}
	return artifactOnce.a
}

// newTestServer loads the trained artifact as "digits" and serves it over
// a loopback HTTP listener.
func newTestServer(tb testing.TB, ecfg EngineConfig) (*Registry, *httptest.Server) {
	tb.Helper()
	reg := NewRegistry(ecfg, nil)
	if err := reg.Load("digits", trainedArtifact(tb)); err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, 30*time.Second))
	tb.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return reg, ts
}

func postGenerate(tb testing.TB, url string, req GenerateRequest) (int, *GenerateResponse) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var out GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, &out
}

// TestEndToEndServing is the acceptance path: train → export → serve →
// 32 concurrent requests → all succeed, batching observed, 28×28 shapes.
func TestEndToEndServing(t *testing.T) {
	_, ts := newTestServer(t, EngineConfig{Workers: 1, BatchWait: 10 * time.Millisecond, QueueSize: 64})

	const concurrent = 32
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	start := make(chan struct{})
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			body, _ := json.Marshal(GenerateRequest{Model: "digits", N: 2})
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- errors.New(resp.Status + ": " + string(b))
				return
			}
			var out GenerateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Dim != 784 || out.N != 2 || len(out.Samples) != 2 || len(out.Samples[0]) != 784 {
				errs <- errors.New("wrong sample shape")
				return
			}
			errs <- nil
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Batching must have occurred: with one worker and 32 concurrent
	// requests, at least one forward pass coalesced several requests.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	text, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	maxBatch := metricValue(t, string(text), "serve_batch_requests_max")
	if maxBatch <= 1 {
		t.Fatalf("no batching observed: serve_batch_requests_max = %g\n%s", maxBatch, text)
	}
	if n := metricValue(t, string(text), "serve_requests_total"); n != concurrent {
		t.Fatalf("serve_requests_total = %g, want %d", n, concurrent)
	}
}

// metricValue extracts a scalar metric from the text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEncodings(t *testing.T) {
	_, ts := newTestServer(t, EngineConfig{})

	// Every body declares its length and is what json.NewEncoder writes
	// for the response it decodes to, byte for byte.
	for _, enc := range []string{"float", "base64", "pgm"} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{"n":2,"encoding":"`+enc+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", enc, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: Content-Length %d for a %d-byte body", enc, resp.ContentLength, len(body))
		}
		var out GenerateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("%s: body differs from encoding/json's", enc)
		}
	}

	code, flt := postGenerate(t, ts.URL, GenerateRequest{N: 3, Encoding: "float"})
	if code != http.StatusOK || len(flt.Samples) != 3 {
		t.Fatalf("float encoding: code %d", code)
	}
	code, b64 := postGenerate(t, ts.URL, GenerateRequest{N: 3, Encoding: "base64"})
	if code != http.StatusOK || b64.Data == "" {
		t.Fatalf("base64 encoding: code %d", code)
	}
	raw, err := base64.StdEncoding.DecodeString(b64.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 3*784*8 {
		t.Fatalf("base64 payload %d bytes, want %d", len(raw), 3*784*8)
	}
	for i := 0; i < 3*784; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(v) || v < -1.5 || v > 1.5 {
			t.Fatalf("sample value %g outside generator range", v)
		}
	}
	code, pgm := postGenerate(t, ts.URL, GenerateRequest{N: 2, Encoding: "pgm"})
	if code != http.StatusOK || len(pgm.PGM) != 2 {
		t.Fatalf("pgm encoding: code %d", code)
	}
	if !strings.HasPrefix(pgm.PGM[0], "P2\n28 28\n255\n") {
		t.Fatalf("pgm header wrong: %q", pgm.PGM[0][:20])
	}

	if code, _ := postGenerate(t, ts.URL, GenerateRequest{N: 1, Encoding: "bmp"}); code != http.StatusBadRequest {
		t.Fatalf("unknown encoding accepted: %d", code)
	}
	if code, _ := postGenerate(t, ts.URL, GenerateRequest{N: -4}); code != http.StatusBadRequest {
		t.Fatalf("negative n accepted: %d", code)
	}
	if code, _ := postGenerate(t, ts.URL, GenerateRequest{Model: "nope"}); code != http.StatusNotFound {
		t.Fatalf("unknown model accepted: %d", code)
	}
}

func TestHealthzAndModelz(t *testing.T) {
	reg, ts := newTestServer(t, EngineConfig{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/modelz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var models struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].Name != "digits" {
		t.Fatalf("modelz: %+v", models)
	}
	if models.Models[0].OutputDim != 784 {
		t.Fatalf("modelz output dim %d", models.Models[0].OutputDim)
	}
	wsum := 0.0
	for _, w := range models.Models[0].Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("mixture weights sum %g", wsum)
	}
	_ = reg
}

func TestHotReload(t *testing.T) {
	reg, ts := newTestServer(t, EngineConfig{})
	if _, r1 := postGenerate(t, ts.URL, GenerateRequest{N: 1}); r1.Version != 1 {
		t.Fatalf("initial version %d", r1.Version)
	}
	// Reloading the same name must bump the version atomically while the
	// server keeps answering.
	if err := reg.Load("digits", trainedArtifact(t)); err != nil {
		t.Fatal(err)
	}
	code, r2 := postGenerate(t, ts.URL, GenerateRequest{N: 1})
	if code != http.StatusOK || r2.Version != 2 {
		t.Fatalf("post-reload: code %d version %d", code, r2.Version)
	}
}

func TestLoadSheddingWhenQueueFull(t *testing.T) {
	// White-box: an engine with a one-slot queue and no workers must shed
	// the second submission. Workers are not started so the queue cannot
	// drain underneath the test.
	e := &Engine{
		cfg:     EngineConfig{}.withDefaults(),
		queue:   make(chan *genRequest, 1),
		metrics: NewMetrics(),
		closing: make(chan struct{}),
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := e.Generate(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first submission: %v", err)
	}
	if _, err := e.Generate(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second submission: %v, want ErrOverloaded", err)
	}
}

func TestGracefulDrainServesQueuedRequests(t *testing.T) {
	e, err := NewEngine("digits", trainedArtifact(t), EngineConfig{Workers: 1, BatchWait: 5 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const inFlight = 8
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Generate(context.Background(), 1)
			errs <- err
		}()
	}
	// Close concurrently with the submissions: everything that made it
	// into the queue must still be answered, the rest gets ErrStopped.
	time.Sleep(time.Millisecond)
	e.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Fatal(err)
		}
	}
	if _, err := e.Generate(context.Background(), 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-close submission: %v, want ErrStopped", err)
	}
}

func TestRegistryDefaultModelResolution(t *testing.T) {
	reg := NewRegistry(EngineConfig{}, nil)
	defer reg.Close()
	if _, err := reg.Engine(""); err == nil {
		t.Fatal("empty registry resolved a default model")
	}
	if err := reg.Load("a", trainedArtifact(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Engine(""); err != nil {
		t.Fatalf("single model should be the default: %v", err)
	}
	if err := reg.Load("b", trainedArtifact(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Engine(""); err == nil {
		t.Fatal("ambiguous default resolved with two models loaded")
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names %v", got)
	}
}

func TestEngineSamplingIsSeededAndSane(t *testing.T) {
	e, err := NewEngine("digits", trainedArtifact(t), EngineConfig{Workers: 1, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out, err := e.Generate(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != 8 || out.Cols != 784 {
		t.Fatalf("shape %d×%d", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if math.IsNaN(v) || v < -1.001 || v > 1.001 {
			t.Fatalf("sample value %g outside tanh range", v)
		}
	}
}

func TestLoadTestHarness(t *testing.T) {
	_, ts := newTestServer(t, EngineConfig{Workers: 2, QueueSize: 128})
	res, err := LoadTest(ts.URL, LoadTestOptions{Clients: 8, Requests: 64, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests+res.Shed+res.Errors != 64 {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("load test hit %d errors", res.Errors)
	}
	if res.Requests == 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible percentiles: %+v", res)
	}
}
