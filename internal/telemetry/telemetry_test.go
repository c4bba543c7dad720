package telemetry

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := &Counter{}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := &Gauge{}
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Trace
	var p *Profile
	p.Since(RoutineTrain, time.Now())
	p.Merge(map[string]RoutineStat{"train": {Count: 1}})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Event("x", F("a", 1))
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || len(p.Snapshot()) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.AddCollector(func(io.Writer) {})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketBoundExact(t *testing.T) {
	// A value exactly on a bucket bound counts into that bucket (le
	// semantics), not the next one.
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(2)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("observe(2) landed in %v, want bucket le=2", s.Counts)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("quantile = %g, want 2", got)
	}
}

func TestHistogramInfBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(250)
	s := h.Snapshot()
	if s.Counts[2] != 2 {
		t.Fatalf("values above the last bound must land in +Inf: %v", s.Counts)
	}
	// Quantiles in the +Inf bucket report the observed max, not +Inf.
	if got := h.Quantile(0.99); got != 250 {
		t.Fatalf("quantile in +Inf bucket = %g, want max 250", got)
	}
	if h.Max() != 250 || h.Count() != 2 || h.Sum() != 350 {
		t.Fatalf("max/count/sum = %g/%d/%g", h.Max(), h.Count(), h.Sum())
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram quantile(%g) = %g, want 0", q, got)
		}
	}
	if h.Max() != 0 || h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(ExponentialBuckets(1, 2, 8))
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("quantile(%g) = %g < previous %g", q, got, prev)
		}
		prev = got
	}
	if math.IsInf(prev, 1) {
		t.Fatal("quantile must never report +Inf")
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1e-4, 2, 4)
	want := []float64{1e-4, 2e-4, 4e-4, 8e-4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

// TestObserveAllocs pins the zero-allocation contract of the hot-path
// instruments: counters, gauges and histograms must be safe to call from
// tensor-adjacent loops without moving the compute-core alloc tripwires.
func TestObserveAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", ExponentialBuckets(1e-6, 2, 20))
	p := new(Profile)
	f := func() {
		c.Inc()
		g.Set(3.25)
		h.Observe(0.0017)
		p.Since(RoutineGather, time.Now())
	}
	f()
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("instrument observation: %.0f allocs per run, want 0", allocs)
	}
}

// TestProfileSharedAcrossGoroutines is the Table IV contract: cells on many
// goroutines record into one Profile, and every call is counted once.
func TestProfileSharedAcrossGoroutines(t *testing.T) {
	p := new(Profile)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.Since(RoutineTrain, time.Now().Add(-time.Microsecond))
			}
		}()
	}
	wg.Wait()
	s := p.Get(RoutineTrain)
	if s.Count != workers*perWorker || s.Total < workers*perWorker*time.Microsecond {
		t.Fatalf("train %+v after %d calls of at least 1µs", s, workers*perWorker)
	}
	if s.Mean() < time.Microsecond || (RoutineStat{}).Mean() != 0 {
		t.Fatalf("mean %v", s.Mean())
	}
}

func TestProfileAddAndGet(t *testing.T) {
	p := new(Profile)
	p.add(RoutineTrain, 1, 2*time.Second)
	p.add(RoutineTrain, 1, 3*time.Second)
	s := p.Get(RoutineTrain)
	if s != (RoutineStat{Count: 2, Total: 5 * time.Second}) {
		t.Fatalf("stat %+v", s)
	}
	if s.Mean() != 2500*time.Millisecond {
		t.Fatalf("mean %v", s.Mean())
	}
	if got := p.Get(RoutineGather); got != (RoutineStat{}) {
		t.Fatalf("uncalled routine %+v", got)
	}
}

func TestProfileMerge(t *testing.T) {
	p := new(Profile)
	p.add(RoutineTrain, 1, time.Second)
	p.Merge(map[string]RoutineStat{
		"train":  {Count: 2, Total: 3 * time.Second},
		"mutate": {Count: 1, Total: time.Second},
		"bogus":  {Count: 9, Total: time.Hour},
	})
	snap := p.Snapshot()
	if len(snap) != 2 || snap["train"] != (RoutineStat{Count: 3, Total: 4 * time.Second}) {
		t.Fatalf("snapshot %v", snap)
	}
	if s := p.Get(RoutineMutate); s != (RoutineStat{Count: 1, Total: time.Second}) {
		t.Fatalf("merged mutate %+v", s)
	}
}

func TestProfileReportFormat(t *testing.T) {
	p := new(Profile)
	p.add(RoutineMutate, 1, 10*time.Second)
	p.add(RoutineTrain, 1, time.Second)
	rep := p.Report()
	lines := strings.Split(strings.TrimRight(rep, "\n"), "\n")
	if len(lines) != 4 || !strings.Contains(lines[0], "routine") {
		t.Fatalf("report:\n%s", rep)
	}
	// Header, rule, then the called routines in Table IV order, whatever
	// their totals.
	if !strings.HasPrefix(lines[2], "train") || !strings.HasPrefix(lines[3], "mutate") {
		t.Fatalf("wrong order:\n%s", rep)
	}
}
