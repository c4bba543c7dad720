package main

import (
	"math"
	"sort"
)

// A timed section is cut into equal-count segments, at most maxSegments of
// at least minSegmentOps operations and never fewer than minSegments. A
// metric is computed per segment, put on the host clock and reported as the
// median across segments.
const (
	maxSegments   = 20
	minSegments   = 5
	minSegmentOps = 4
)

func segmentCount(n int) int {
	k := n / minSegmentOps
	if k > maxSegments {
		k = maxSegments
	}
	if k < minSegments {
		k = minSegments
	}
	return k
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver applies to ten runs of a metric.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// supportedPercentile returns the highest percentile not above want that
// still has at least minBeyond of n samples beyond it (never below the
// median).
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - float64(minBeyond)/float64(n)
	if p > want {
		p = want
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// cut splits n items into k contiguous index ranges whose sizes differ by at
// most one; ranges are returned as [lo, hi) pairs. Fewer than k items give
// one range per item.
func cut(n, k int) [][2]int {
	if n < k {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i * n / k, (i + 1) * n / k})
	}
	return out
}

// The host clock. A wall-clock timing of an interval is put on it by
// multiplying with a scale made of what the host did during that interval —
// the stolen share s of the processor time and the cost p of the harness's
// probe (hostClock) — and of how strongly the workload follows the two:
//
//	scale = (1 − s)^steal × (probeUsualMs / p)^e,  e = below if p < probeUsualMs, else above
//
// (stealTotal in place of steal for a mean or a total, which no stalled
// operation escapes the way it escapes a median.)
//
// It is the clock of a host that steals nothing and on which the probe costs
// probeUsualMs. With both steal exponents 1 and the other two 0 it is the
// clock that merely stands still while the processors are taken away: work
// that needs t on an undisturbed processor takes t/(1−s). The exponents are
// the only fitted constants of the harness, from 40 runs per workload of one
// commit on the reference VM (README, "Calibration"). Both inputs are facts
// of the host, measured by harness code the program never runs, so a change
// to the program moves a scaled timing exactly as much as the wall-clock one.
type sensitivity struct{ steal, stealTotal, below, above float64 }

// Two kinds of workload came out of the calibration. Where a few goroutines
// compute and meet at barriers, a stolen processor also holds up the work
// that waits for it and returns with cold caches, so timings grow faster than
// 1/(1−s); a core whose other hardware thread idles speeds them up as much as
// it speeds the probe; and a neighbour that saturates the core slows them a
// third as much, on a log scale, as the probe, which does nothing but contend
// for execution units. Where many short requests mostly wait on the kernel
// and on each other, all three matter less, and the median request escapes
// part of the stolen time — it is the request that did not meet it — while
// the throughput pays for all of it.
var (
	computeBound = sensitivity{steal: 1.3, stealTotal: 1.3, below: 1.0, above: 0.35}
	requestBound = sensitivity{steal: 0.8, stealTotal: 1.1, below: 0.4, above: 0.2}
)

// probeUsualMs is what the probe costs on the reference VM as a rule: with a
// neighbour on the core that is neither idle nor saturating it.
const probeUsualMs = 0.4

// scale is the factor for a median of operations, scaleTotal the one for
// their mean or for one long interval.
func (x sensitivity) scale(stolen, probeMs float64) float64 {
	return math.Pow(1-stolen, x.steal) * x.neighbour(probeMs)
}

func (x sensitivity) scaleTotal(stolen, probeMs float64) float64 {
	return math.Pow(1-stolen, x.stealTotal) * x.neighbour(probeMs)
}

func (x sensitivity) neighbour(probeMs float64) float64 {
	scale := 1.0
	switch {
	case probeMs <= 0: // no reading
	case probeMs < probeUsualMs:
		scale *= math.Pow(probeUsualMs/probeMs, x.below)
	default:
		scale *= math.Pow(probeUsualMs/probeMs, x.above)
	}
	return scale
}

// acrossSegments reduces per-segment values, each already on the host clock,
// to the reported one: their median, and the distance between their
// quartiles beside it.
func acrossSegments(vals []float64) (value, iqr float64) {
	q1, q2, q3 := quartiles(vals)
	return q2, q3 - q1
}

// op is one completed operation of a timed section: a cell iteration of one
// rank or one request of one client.
type op struct {
	worker int
	endNs  int64   // completion, ns since the run's clock origin
	ms     float64 // duration as seen by the issuer
	cycle  float64 // ms since this worker's previous completion
	ok     bool
}

// opSummary is what a timed section reduces to.
type opSummary struct {
	n             int
	p50, p50IQR   float64 // of ms
	tail, tailIQR float64 // of ms at tailP
	tailP         float64
	cyc, cycIQR   float64 // median cycle
	rate, rateIQR float64 // successful ops per second
	// The same three on the wall clock, and what the host did meanwhile.
	wallP50, wallCyc, wallRate float64
	steal, probeMs             float64
	segs                       []segment
}

// segment is one segment of a timed section as the wall clock saw it, with
// what the host did meanwhile: the raw material of the reported medians.
type segment struct {
	Cycle     float64 `json:"cycle_ms_p50"`
	Latency   float64 `json:"latency_ms_p50"`
	MeanCycle float64 `json:"cycle_ms_mean"`
	Steal     float64 `json:"steal_share"`
	ProbeMs   float64 `json:"probe_ms"`
}

// summarize reduces the operations of a timed section. clock, when non-nil,
// shares the origin of the operations' completion times and says what the
// host did during each segment. Failed operations count towards nothing
// here; the caller reports them.
func summarize(ops []op, clock *hostClock) opSummary {
	good := make([]op, 0, len(ops))
	for _, o := range ops {
		if o.ok {
			good = append(good, o)
		}
	}
	sort.SliceStable(good, func(i, j int) bool { return good[i].endNs < good[j].endNs })
	s := opSummary{n: len(good)}
	if s.n == 0 {
		return s
	}
	ms := make([]float64, s.n)
	cyc := make([]float64, s.n)
	workers := map[int]bool{}
	for i, o := range good {
		ms[i], cyc[i] = o.ms, o.cycle
		workers[o.worker] = true
	}
	ranges := cut(s.n, segmentCount(s.n))
	// per computes a statistic of every segment on the wall clock; on puts
	// the segments on the host clock (nil scale: leaves them where they
	// are) and reduces them to the reported value.
	per := func(vals []float64, f func(seg []float64) float64) []float64 {
		out := make([]float64, len(ranges))
		for i, r := range ranges {
			out[i] = f(vals[r[0]:r[1]])
		}
		return out
	}
	on := func(scale, wall []float64) (value, iqr float64) {
		scaled := append([]float64(nil), wall...)
		for i := range scale {
			scaled[i] *= scale[i]
		}
		return acrossSegments(scaled)
	}
	pOf := func(p float64) func([]float64) float64 {
		return func(seg []float64) float64 { return percentile(sortedCopy(seg), p) }
	}
	mean := func(seg []float64) float64 {
		var sum float64
		for _, c := range seg {
			sum += c
		}
		return sum / float64(len(seg))
	}

	scale, scaleTotal := make([]float64, len(ranges)), make([]float64, len(ranges))
	s.segs = make([]segment, len(ranges))
	for i, r := range ranges {
		from, to := good[r[0]].endNs-int64(good[r[0]].cycle*1e6), good[r[1]-1].endNs
		scale[i], scaleTotal[i] = clock.scale(from, to), clock.scaleTotal(from, to)
		s.segs[i].Steal, s.segs[i].ProbeMs = clock.share(from, to), clock.probeMs(from, to)
	}
	first := good[0].endNs - int64(good[0].cycle*1e6)
	s.steal, s.probeMs = clock.share(first, good[s.n-1].endNs), clock.probeMs(first, good[s.n-1].endNs)

	p50, cycle, meanCycle := per(ms, pOf(0.5)), per(cyc, pOf(0.5)), per(cyc, mean)
	for i := range s.segs {
		s.segs[i].Latency, s.segs[i].Cycle, s.segs[i].MeanCycle = p50[i], cycle[i], meanCycle[i]
	}
	s.p50, s.p50IQR = on(scale, p50)
	s.cyc, s.cycIQR = on(scale, cycle)
	s.wallP50, _ = on(nil, p50)
	s.wallCyc, _ = on(nil, cycle)

	// The tail is the highest percentile up to p95 that has minBeyond
	// samples beyond it in the whole section, taken per segment like every
	// other statistic: one stall then moves one segment's tail, not the
	// reported one.
	s.tailP = supportedPercentile(s.n, 0.95)
	s.tail, s.tailIQR = on(scale, per(ms, pOf(s.tailP)))

	// A closed loop of W workers completes W operations per mean cycle, so
	// the rate is W over the mean cycle. Counting completions per wall
	// interval instead would depend on where a segment boundary falls among
	// the completions that a barrier releases together.
	w := float64(len(workers))
	hostCycle, cycleIQR := on(scaleTotal, meanCycle)
	wallCycle, _ := on(nil, meanCycle)
	s.rate, s.wallRate = w/(hostCycle/1e3), w/(wallCycle/1e3)
	s.rateIQR = s.rate * cycleIQR / hostCycle
	return s
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
