package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	if r.GaugeL("g", `cell="0"`, "") == r.GaugeL("g", `cell="1"`, "") {
		t.Fatal("distinct label sets must be distinct series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "Requests.").Add(7)
	r.Gauge("depth", "Queue depth.").Set(3)
	r.GaugeFunc("models", "Loaded models.", func() float64 { return 2 })
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	var b bytes.Buffer
	r.WriteText(&b)
	got := b.String()
	for _, want := range []string{
		"# HELP req_total Requests.\n",
		"req_total 7\n",
		"depth 3\n",
		"models 2\n",
		`lat_seconds_bucket{le="0.5"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 3\n",
		"lat_seconds_count 3\n",
		"lat_seconds_max 2\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestWriteTextLabeledSeriesShareHelp(t *testing.T) {
	r := NewRegistry()
	r.GaugeL("loss", `cell="0"`, "Per-cell loss.").Set(1)
	r.GaugeL("loss", `cell="1"`, "Per-cell loss.").Set(2)
	var b bytes.Buffer
	r.WriteText(&b)
	got := b.String()
	if strings.Count(got, "# HELP loss") != 1 {
		t.Fatalf("HELP must be emitted once per metric name:\n%s", got)
	}
	if !strings.Contains(got, `loss{cell="0"} 1`) || !strings.Contains(got, `loss{cell="1"} 2`) {
		t.Fatalf("labelled series missing:\n%s", got)
	}
}

// TestConcurrentObserveScrapeSnapshot drives parallel observers, text
// scrapers and snapshot readers through one registry; run under -race
// this is the concurrency contract of the whole package.
func TestConcurrentObserveScrapeSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	g := r.Gauge("level", "")
	h := r.Histogram("lat", "", ExponentialBuckets(1e-6, 2, 16))
	r.GaugeFunc("derived", "", func() float64 { return float64(c.Value()) })

	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j) * 1e-6)
				// Registration races with observation and scraping.
				r.CounterL("dyn_total", fmt.Sprintf("w=%q", fmt.Sprint(i)), "").Inc()
			}
		}(i)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			r.WriteText(&b)
			_ = h.Snapshot()
			_ = h.Quantile(0.99)
		}
	}()
	wg.Wait()
	<-scrapeDone
	if c.Value() != writers*perWriter {
		t.Fatalf("ops_total = %d, want %d", c.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
}

func TestGaugeFuncRunsOutsideLock(t *testing.T) {
	// A callback that re-enters the registry (registering and scraping)
	// must not deadlock: callbacks run outside the registry lock.
	r := NewRegistry()
	r.GaugeFunc("reentrant", "", func() float64 {
		return float64(r.Counter("inner_total", "").Value())
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b bytes.Buffer
		r.WriteText(&b)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteText deadlocked on a re-entrant gauge callback")
	}
}

func TestTraceJSONL(t *testing.T) {
	var b bytes.Buffer
	tr := NewTrace(&b, 42)
	tr.Event("iter", F("cell", 0), F("gen_loss", 0.69))
	tr.Event("iter", F("cell", 1), F("gen_loss", 0.5), F("bad", 0))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&b)
	lines := 0
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if ev["seed"] != float64(42) {
			t.Fatalf("line %d seed = %v, want 42", lines, ev["seed"])
		}
		if ev["event"] != "iter" {
			t.Fatalf("line %d event = %v", lines, ev["event"])
		}
		if _, ok := ev["ms"]; !ok {
			t.Fatalf("line %d missing ms timestamp", lines)
		}
	}
	if lines != 2 {
		t.Fatalf("trace lines = %d, want 2", lines)
	}
}

func TestTraceNonFiniteBecomesNull(t *testing.T) {
	var b bytes.Buffer
	tr := NewTrace(&b, 1)
	nan := 0.0
	tr.Event("x", F("v", nan/nan))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var ev map[string]any
	if err := json.Unmarshal(b.Bytes(), &ev); err != nil {
		t.Fatalf("NaN field broke JSON: %v (%s)", err, b.String())
	}
	if ev["v"] != nil {
		t.Fatalf("NaN must encode as null, got %v", ev["v"])
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	prof := new(Profile)
	prof.Merge(map[string]RoutineStat{"train": {Count: 1, Total: 1500 * time.Millisecond}})
	prof.Register(r, "test")

	srv, addr, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "up_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, `test_profile_seconds_total{routine="train"} 1.5`) {
		t.Fatalf("/metrics missing profiler collector:\n%s", metrics)
	}
	if !strings.Contains(metrics, `test_profile_calls_total{routine="train"} 1`) {
		t.Fatalf("/metrics missing profiler calls:\n%s", metrics)
	}
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

func TestDebugMuxServesPprofSubpages(t *testing.T) {
	mux := NewDebugMux(NewRegistry())
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/symbol", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof symbol endpoint status %d", rec.Code)
	}
}
