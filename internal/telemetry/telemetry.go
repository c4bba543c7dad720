// Package telemetry is the shared observability layer of the repository:
// a standard-library metrics registry (counters, gauges, fixed-bucket
// histograms) with lock-free reads, the paper's Table IV routine profile,
// Prometheus-style text exposition, an optional JSONL event trace keyed
// by run seed, and a debug HTTP server exposing /metrics and
// net/http/pprof.
//
// Instruments are written with atomic operations only — no observation
// ever takes a lock or allocates — so they are safe to place on tensor-
// adjacent hot paths without disturbing the allocation tripwires of the
// compute core. Every instrument method tolerates a nil receiver (a
// no-op), so call sites can thread optional instrumentation through
// unconditionally.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down, stored as atomic
// bits so reads never block writes.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds v to the gauge. Safe on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observations and
// reads are both lock-free; a snapshot taken concurrently with
// observations is monotone per field but not a single atomic cut across
// fields (the count may momentarily exceed the bucket sum by in-flight
// observations), which is the standard exposition-format contract.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus the +Inf bucket at the end
	sum    atomic.Uint64   // float64 bits
	max    atomic.Uint64   // float64 bits
	total  atomic.Uint64
}

// NewHistogram returns a histogram with the given ascending upper bounds
// (the +Inf bucket is implicit). The bounds slice is not copied.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. A value exactly on a bucket bound counts
// into that bucket (le semantics). Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Max:    math.Float64frombits(h.max.Load()),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sum returns the accumulated sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns an upper-bound estimate of the q-quantile; see
// HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// HistogramSnapshot is a copied histogram state.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // per bound, +Inf bucket last
	Sum    float64
	Max    float64
	Count  uint64
}

// Quantile returns an upper-bound estimate of the q-quantile from the
// cumulative bucket counts: the bound of the bucket holding the target
// observation, or the observed max for the +Inf bucket. An empty
// histogram returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}

// ExponentialBuckets returns n upper bounds starting at start, each
// factor times the previous — the standard shape for latency histograms.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}
