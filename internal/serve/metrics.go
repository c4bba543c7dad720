package serve

import (
	"io"
	"time"

	"cellgan/internal/telemetry"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram: exponential from 100 µs to ~100 s.
var latencyBuckets = telemetry.ExponentialBuckets(1e-4, 2, 21)

// batchBuckets are the upper bounds of the batch-size histogram
// (requests coalesced per forward pass).
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics aggregates server-side counters for the /metrics endpoint,
// built on the shared telemetry registry. All methods are safe for
// concurrent use; observations are lock-free atomics, so a slow scrape
// reader can never stall the request hot path (the pre-telemetry
// implementation held one mutex across both, which let a stalled
// /metrics client block ObserveRequest and let the scrape-time
// callbacks deadlock against engine locks).
type Metrics struct {
	reg       *telemetry.Registry
	requests  *telemetry.Counter
	errors    *telemetry.Counter
	shed      *telemetry.Counter
	samples   *telemetry.Counter
	latency   *telemetry.Histogram
	batchSize *telemetry.Histogram
}

// NewMetrics returns an empty metrics set on a private registry.
func NewMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	return &Metrics{
		reg:       reg,
		requests:  reg.Counter("serve_requests_total", "Completed generate requests."),
		errors:    reg.Counter("serve_request_errors_total", "Requests that failed."),
		shed:      reg.Counter("serve_requests_shed_total", "Requests rejected with 429 (queue full)."),
		samples:   reg.Counter("serve_samples_total", "Generated samples."),
		latency:   reg.Histogram("serve_request_latency_seconds", "Request latency.", latencyBuckets),
		batchSize: reg.Histogram("serve_batch_requests", "Requests coalesced per forward pass.", batchBuckets),
	}
}

// Registry exposes the underlying telemetry registry so callers can
// attach additional instruments or collectors to the same /metrics
// exposition.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// setQueueDepth registers the live queue-depth gauge. The callback runs
// at scrape time, outside every metrics lock, so it may take engine and
// registry locks freely.
func (m *Metrics) setQueueDepth(fn func() int) {
	m.reg.GaugeFunc("serve_queue_depth", "Requests waiting in engine queues.",
		func() float64 { return float64(fn()) })
}

// setModels registers the loaded-model-count gauge; same contract as
// setQueueDepth.
func (m *Metrics) setModels(fn func() int) {
	m.reg.GaugeFunc("serve_models", "Loaded models.",
		func() float64 { return float64(fn()) })
}

// ObserveRequest records one completed /generate request.
func (m *Metrics) ObserveRequest(n int, d time.Duration, err error) {
	m.requests.Inc()
	if err != nil {
		m.errors.Inc()
		return
	}
	m.samples.Add(uint64(n))
	m.latency.Observe(d.Seconds())
}

// ObserveShed records one request rejected because the queue was full.
func (m *Metrics) ObserveShed() { m.shed.Inc() }

// ObserveBatch records the size (coalesced requests) of one forward pass.
func (m *Metrics) ObserveBatch(requests int) { m.batchSize.Observe(float64(requests)) }

// MaxBatch returns the largest observed batch (in coalesced requests).
func (m *Metrics) MaxBatch() int { return int(m.batchSize.Max()) }

// LatencyQuantile returns an upper-bound estimate of the q-quantile of
// request latency in seconds.
func (m *Metrics) LatencyQuantile(q float64) float64 { return m.latency.Quantile(q) }

// Requests returns the number of completed requests (including errors).
func (m *Metrics) Requests() uint64 { return m.requests.Value() }

// WriteText renders all metrics in a Prometheus-style text exposition.
// Values are read atomically and the queue-depth/model callbacks are
// invoked without holding any lock.
func (m *Metrics) WriteText(w io.Writer) { m.reg.WriteText(w) }
