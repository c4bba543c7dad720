package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench executable when the
// harness re-executes itself (the serving set-up trains its artifact in a
// child process).
func TestMain(m *testing.M) {
	for _, kv := range os.Environ() {
		if kv == childEnv {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0.5); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(s, 0.95); !near(got, 9.55) {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(s)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1000, want: 0.95, got: 0.95}, // 50 beyond p95
		{n: 200, want: 0.95, got: 0.95},  // exactly 10 beyond
		{n: 100, want: 0.95, got: 0.90},  // p95 would leave 5
		{n: 40, want: 0.95, got: 0.75},
		{n: 12, want: 0.95, got: 0.5}, // never below the median
		{n: 5000, want: 0.99, got: 0.99},
		{n: 500, want: 0.99, got: 0.98},
	} {
		if got := supportedPercentile(c.n, c.want); !near(got, c.got) {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestCutAndSegmentCount(t *testing.T) {
	for _, n := range []int{0, 3, 5, 7, 23} {
		total := 0
		for _, r := range cut(n, 5) {
			if r[1] <= r[0] {
				t.Errorf("cut(%d) has an empty range %v", n, r)
			}
			total += r[1] - r[0]
		}
		if total != n {
			t.Errorf("cut(%d) covers %d items", n, total)
		}
	}
	for _, c := range [][2]int{{11, 5}, {32, 8}, {44, 11}, {117, 20}, {15000, 20}} {
		if got := segmentCount(c[0]); got != c[1] {
			t.Errorf("segmentCount(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestHostClockScale(t *testing.T) {
	// A quiet host: the median across segments, one slow segment ignored.
	v, iqr := acrossSegments([]float64{10, 11, 50, 12, 13})
	if !near(v, 12) || !near(iqr, 21) { // quartiles 10.5, 12, 31.5
		t.Errorf("quiet host: %v (iqr %v), want 12 (21)", v, iqr)
	}
	for _, x := range []sensitivity{computeBound, requestBound} {
		// Nothing stolen and the probe at its usual cost: the wall clock.
		if got := x.scale(0, probeUsualMs); !near(got, 1) {
			t.Errorf("%+v: scale on an undisturbed host = %v, want 1", x, got)
		}
		if got := x.scale(0, 0); !near(got, 1) { // no probe reading
			t.Errorf("%+v: scale without a probe reading = %v, want 1", x, got)
		}
		// More stolen, or a dearer probe, never makes a timing count for more.
		for _, c := range [][4]float64{{0, 0.4, 0.3, 0.4}, {0.1, 0.4, 0.1, 1.3}, {0, 0.27, 0, 0.39}, {0, 0.27, 0.4, 1.3}} {
			if a, b := x.scale(c[0], c[1]), x.scale(c[2], c[3]); b >= a || b <= 0 {
				t.Errorf("%+v: scale(%v, %v) = %v, scale(%v, %v) = %v: want the second smaller", x, c[0], c[1], a, c[2], c[3], b)
			}
		}
	}
	// An idle neighbour and a saturating one are weighed differently.
	if lo, hi := computeBound.scale(0, probeUsualMs/2), computeBound.scale(0, probeUsualMs*2); !near(lo, 2) || !near(hi, math.Pow(0.5, 0.35)) {
		t.Errorf("scale at half and twice the usual probe cost = %v and %v", lo, hi)
	}
	// The clock that only stands still while the processors are away.
	if x := (sensitivity{steal: 1, stealTotal: 1}); !near(x.scale(0.25, 3), 0.75) || !near(x.scaleTotal(0.25, 3), 0.75) {
		t.Errorf("steal-only scales = %v and %v, want 0.75", x.scale(0.25, 3), x.scaleTotal(0.25, 3))
	}
	// A mean pays for at least as much of the stolen time as a median.
	if m, tot := requestBound.scale(0.3, 0.4), requestBound.scaleTotal(0.3, 0.4); tot >= m {
		t.Errorf("request-bound scales at 0.3 stolen: median %v, total %v", m, tot)
	}
}

// A host that is disturbed during four of twenty segments — three tenths of
// the time stolen, the probe twice as dear — moves neither the median nor the
// tail nor the rate when the timings of those segments stretch by what the
// host clock takes out.
func TestSummarizeOnHostClock(t *testing.T) {
	n := float64(runtime.NumCPU())
	clock := &hostClock{sens: computeBound, at: []int64{0}, steal: []float64{0}, probe: []float64{0}}
	var ops []op
	var stolen, probed float64
	for i := 0; i < 1000; i++ { // 20 segments of 50
		ms, cycle, cost := 8.0, 10.0, probeUsualMs
		if seg := i / 50; seg == 6 || seg == 7 || seg == 14 || seg == 15 {
			cost = 2 * probeUsualMs
			stretch := 1 / computeBound.scale(0.3, cost)
			ms, cycle = ms*stretch, cycle*stretch
			stolen += 0.3 * n * cycle / 1e3
		}
		probed += cost
		end := clock.at[len(clock.at)-1] + int64(cycle*1e6)
		ops = append(ops, op{endNs: end, ms: ms, cycle: cycle, ok: true})
		clock.at, clock.steal, clock.probe = append(clock.at, end), append(clock.steal, stolen), append(clock.probe, probed)
	}
	s := summarize(ops, clock)
	if !near(s.p50, 8) || !near(s.tail, 8) || !near(s.cyc, 10) || !near(s.rate, 100) {
		t.Errorf("summary = %+v", s)
	}
	if !near(s.wallP50, 8) || !near(s.wallCyc, 10) || !near(s.wallRate, 100) {
		t.Errorf("wall-clock medians moved with four of twenty segments: %+v", s)
	}
	if s.steal <= 0.03 || s.steal >= 0.3 || s.probeMs <= probeUsualMs || s.probeMs >= 2*probeUsualMs {
		t.Errorf("section saw steal %v and probe %v ms", s.steal, s.probeMs)
	}
}

func TestSummarizeRate(t *testing.T) {
	// Two workers, every cycle 100 ms: 20 operations per second whatever the
	// phase between them.
	var ops []op
	for i := 1; i <= 50; i++ {
		ops = append(ops, op{worker: 0, endNs: int64(i) * 100e6, ms: 80, cycle: 100, ok: true})
		ops = append(ops, op{worker: 1, endNs: int64(i)*100e6 + 37e6, ms: 90, cycle: 100, ok: true})
	}
	ops = append(ops, op{worker: 0, endNs: 1, ms: 1e6, cycle: 1e6, ok: false}) // failures are not timed
	s := summarize(ops, nil)
	if s.n != 100 || !near(s.rate, 20) || !near(s.cyc, 100) || !near(s.p50, 85) {
		t.Errorf("summary = %+v", s)
	}
	// 100 operations carry a p90 with ten samples beyond it.
	if !near(s.tailP, 0.90) || !near(s.tail, 90) {
		t.Errorf("tail = %v at p%v", s.tail, s.tailP*100)
	}
}

func TestStealShare(t *testing.T) {
	n := float64(runtime.NumCPU())
	// One second in which the hypervisor took 0.2 processor-seconds per
	// processor, then a calm second.
	c := &hostClock{at: []int64{0, 1e9, 2e9}, steal: []float64{5, 5 + 0.2*n, 5 + 0.2*n}, probe: []float64{0.5, 1.5, 4.5}}
	if got := c.share(0, 1e9); !near(got, 0.2) {
		t.Errorf("share of the first second = %v, want 0.2", got)
	}
	if got := c.share(1e9, 2e9); got != 0 {
		t.Errorf("share of the second second = %v, want 0", got)
	}
	if got := c.share(0, 2e9); !near(got, 0.1) {
		t.Errorf("share of both = %v, want 0.1", got)
	}
	if a, b := c.probeMs(0, 1e9), c.probeMs(0, 2e9); !near(a, 1) || !near(b, 2) {
		t.Errorf("mean probe cost = %v and %v, want 1 and 2", a, b)
	}
	var none *hostClock
	if got := none.share(0, 1e9); got != 0 || none.probeMs(0, 1e9) != 0 || none.scale(0, 1e9) != 1 {
		t.Errorf("nil clock: share %v, probe %v, scale %v", got, none.probeMs(0, 1e9), none.scale(0, 1e9))
	}
	// A live clock reads the host: the probe costs something, every time.
	live := startHostClock(time.Now(), computeBound)
	time.Sleep(3 * hostPeriod)
	live.end()
	if p := live.probeMs(0, live.sinceOrigin()); p <= 0 || p > 100 {
		t.Errorf("probe cost %v ms", p)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// children cover [10,60] and [80,100] = 70 of the parent's 100
	if self[1] != 30 {
		t.Errorf("parent self = %d, want 30", self[1])
	}
	if self[2] != 25 || self[3] != 30 || self[4] != 40 || self[5] != 5 {
		t.Errorf("self times = %v", self)
	}
	by := selfByName(spans)
	if !near(by["parent"], 30e-6) || !near(by["a"], 25e-6) {
		t.Errorf("self by name = %v", by)
	}
}

func TestReplaySharesSeparateWaitFromCost(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	// One grid iteration, two ranks. Rank 0 arrives early and waits 30 ms in
	// the allgather; rank 1 arrives last and pays only the 10 ms it costs.
	spans := []span{
		{ID: 1, Name: spanGridIter, Op: 1, Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: spanIterate, Op: 1, Start: 0, End: ms(50)},
		{ID: 3, Parent: 1, Name: spanAllgather, Op: 1, Start: ms(50), End: ms(90)},
		{ID: 4, Parent: 1, Name: spanSetNeighbors, Op: 1, Start: ms(90), End: ms(100)},
		{ID: 5, Name: spanGridIter, Op: 1, Start: 0, End: ms(100)},
		{ID: 6, Parent: 5, Name: spanIterate, Op: 1, Start: 0, End: ms(80)},
		{ID: 7, Parent: 5, Name: spanAllgather, Op: 1, Start: ms(80), End: ms(90)},
		{ID: 8, Parent: 5, Name: spanSetNeighbors, Op: 1, Start: ms(90), End: ms(100)},
		{ID: 9, Name: spanAllgather, Op: 0, Start: 0, End: ms(5)}, // initial exchange: ignored
	}
	got := replayStats(spans)
	// exchange spans 40+10+10+10 = 70 of 200, of which 30 is barrier wait
	if !near(got.exchange, 0.35) || !near(got.barrierWait, 0.15) || !near(got.spanSumMsP50, 100) {
		t.Errorf("replay shares = %+v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "iter_ms_p50", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "requests_per_s", Better: "higher", Bound: 0.05}
	a := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"A/A", lower, a, scale(a, 1.001), unchanged},
		{"slower by 10%", lower, a, scale(a, 1.10), regressed},
		{"faster by 10%", lower, a, scale(a, 0.90), improved},
		{"faster but inside the spread", lower, a, scale(a, 0.9995), unchanged},
		{"throughput down 10%", higher, a, scale(a, 0.90), regressed},
		{"throughput up 10%", higher, a, scale(a, 1.10), improved},
		{"spread wider than the bound", lower, []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, scale(a, 1.2), unresolved},
		{"one run each side, within the bound", lower, []float64{100}, []float64{103}, unchanged},
		{"one run each side, beyond the bound", lower, []float64{100}, []float64{110}, regressed},
	} {
		if got := judge(c.def, newSide(c.a), newSide(c.b)); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// An absolute bound compares differences, not shares.
	fit := metricDef{Name: "best_fitness", Better: "lower", Bound: 0.005, Absolute: true}
	if got := judge(fit, newSide([]float64{0.65}), newSide([]float64{0.652})); got != unchanged {
		t.Errorf("fitness +0.002: %s", got)
	}
	if got := judge(fit, newSide([]float64{0.65}), newSide([]float64{0.66})); got != regressed {
		t.Errorf("fitness +0.01: %s", got)
	}
}

func TestCompareFilesFlagsMoreFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int, iter, fitness float64) string {
		var buf bytes.Buffer
		for seed := uint64(1); seed <= 5; seed++ {
			m := metricSet{"setup_s": 1, "iter_ms_p50": iter, "latency_ms_p50": iter, "requests_per_s": 1000 / iter, "peak_rss_mb": 100}
			rec := record{
				Detail: detail{Workload: "mlp-compute", Seed: seed, Extra: map[string]float64{"best_fitness": fitness + float64(seed)/10, "latency_ms_p95": 1.2 * iter}},
				Result: result{Correct: true, Attempted: 40, Failed: failed, Metrics: m.render(endToEnd)},
			}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, failing, slow := write("a", 0, 100, 0.5), write("same", 0, 100, 0.5), write("failing", 1, 100, 0.5), write("slow", 0, 150, 0.5)
	// Fitness differs from seed to seed by far more than its bound; only a
	// run that is worse than the run of the same seed counts.
	unfit := write("unfit", 0, 100, 0.51)
	for _, c := range []struct {
		b    string
		bad  bool
		want string
	}{{same, false, "unchanged"}, {failing, true, "regressed"}, {slow, true, "regressed"}, {unfit, true, "regressed"}} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(out.String(), c.want) {
			t.Errorf("compare against %s: regressed=%v\n%s", filepath.Base(c.b), bad, out.String())
		}
	}
}

// BENCHMARK.json and the tables in metrics.go must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables list %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i] != w {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in the table", i, f.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for i, d := range endToEnd {
		if f.EndToEnd[i] != d {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the table", i, f.EndToEnd[i], d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if f.PerLayer[i] != d {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the table", i, f.PerLayer[i], d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload, untraced and traced, at the smoke size with
// all correctness checks live, so that a refactor of internal/ that breaks
// the harness — or that makes the replay diverge from the runner — fails here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			began := time.Now()
			res, d, err := runOne(w.Name, 7, 1, trace, true, out)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s trace=%d: %v", w.Name, trace, time.Since(began).Round(time.Millisecond))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d notes=%v", w.Name, trace, res.Correct, res.Failed, res.Attempted, d.Notes)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				v, ok := res.Metrics[def.Name]
				if !ok || !finite(v.Value) || v.Unit != def.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v", w.Name, trace, def.Name, v)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must be positive", w.Name, def.Name, v.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
