// Package serve is the inference half of the training/inference stack: it
// loads generator-mixture artifacts exported from internal/checkpoint and
// serves samples from them over HTTP. The throughput lever is request
// coalescing — concurrent /generate requests are merged into single
// forward passes through the mixture, amortising the matmul cost exactly
// the way the training loop amortises it over mini-batches.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/tensor"
)

// ErrOverloaded is returned when the request queue is full; HTTP maps it
// to 429 so clients back off instead of piling up.
var ErrOverloaded = errors.New("serve: queue full, request shed")

// ErrStopped is returned for requests submitted after shutdown began.
var ErrStopped = errors.New("serve: engine stopped")

// MaxSamplesPerRequest bounds one request's sample count so a single
// caller cannot monopolise a batch.
const MaxSamplesPerRequest = 4096

// Model is an immutable, loaded generator mixture. Hot-reloading replaces
// the whole Model atomically; in-flight batches finish on the version they
// started with.
type Model struct {
	// Name is the registry key the model is served under.
	Name string
	// Version increments on every (re)load of the name.
	Version uint64
	// Hash is the content hash of the artifact (checkpoint.HashMixture):
	// the cross-process model identity health checks and the deployment
	// gateway compare against.
	Hash string
	// Cfg is the training configuration the mixture came from.
	Cfg config.Config
	// Members lists the mixture's member ranks in ascending order;
	// Weights are their mixture coefficients.
	Members []int
	Weights []float64
	// LatentDim and OutputDim describe the generator's signature.
	LatentDim, OutputDim int

	// sampler is the model's one copy of the generators, which every
	// worker samples on a workspace of its own: the float64 mixture, or
	// only its float32 narrow.
	sampler sampler
}

// sampler is a mixture at the width the engine serves: *core.Mixture or
// *core.Mixture32.
type sampler interface {
	SampleWith(ws *core.SampleWorkspace, n, latentDim int, rng *tensor.RNG) *tensor.Mat
}

// EngineConfig tunes a batched sampling engine.
type EngineConfig struct {
	// Workers is the number of concurrent forward-pass workers; they all
	// sample the one loaded model, each on a workspace of its own
	// (default 2).
	Workers int
	// MaxBatchSamples caps the samples coalesced into one forward pass
	// (default 256).
	MaxBatchSamples int
	// QueueSize bounds the request queue; submissions beyond it are shed
	// with ErrOverloaded (default 256).
	QueueSize int
	// BatchWait is how long a worker holding a request waits for more
	// requests to coalesce before running the forward pass (default 2 ms).
	// Zero batches opportunistically: only what is already queued.
	BatchWait time.Duration
	// Seed keys the latent-sampling RNG streams (one split per worker).
	Seed uint64
	// Float32 serves forward passes on the float32 kernel tier: a loaded
	// mixture is narrowed into a core.Mixture32 and only that is kept.
	// Routing and latent draws stay float64, so the same seed produces the
	// same sample-to-generator assignment; outputs agree with the float64
	// path only to float32 precision.
	Float32 bool
}

// withDefaults fills zero fields.
func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBatchSamples <= 0 {
		c.MaxBatchSamples = 256
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.BatchWait == 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// genRequest is one caller waiting for samples.
type genRequest struct {
	ctx  context.Context
	n    int
	done chan genResult // buffered(1): workers never block on delivery
}

type genResult struct {
	out *tensor.Mat
	err error
}

// Engine serves one named model: a bounded queue feeding a pool of
// workers that coalesce queued requests into single forward passes.
type Engine struct {
	cfg     EngineConfig
	cur     atomic.Pointer[Model]
	queue   chan *genRequest
	metrics *Metrics

	closing   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// closeMu serialises submissions against Close: an enqueue holds the
	// read lock, so once Close holds the write lock and flips closed, no
	// request can slip into the queue after the final drain.
	closeMu sync.RWMutex
	closed  bool
}

// NewEngine starts an engine serving the mixture in a as version 1 of
// the model name.
func NewEngine(name string, a *checkpoint.MixtureArtifact, cfg EngineConfig, metrics *Metrics) (*Engine, error) {
	cfg = cfg.withDefaults()
	if metrics == nil {
		metrics = NewMetrics()
	}
	e := &Engine{
		cfg:     cfg,
		queue:   make(chan *genRequest, cfg.QueueSize),
		metrics: metrics,
		closing: make(chan struct{}),
	}
	if err := e.load(name, a); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(uint64(i))
	}
	return e, nil
}

// load builds the next version of the model name from a and swaps it in
// atomically (hot reload); batches already running finish on the version
// they started with. The model keeps the mixture at the width the engine
// serves and not the artifact's encoded generators. Loads must not run
// concurrently (the Registry holds its lock across one).
func (e *Engine) load(name string, a *checkpoint.MixtureArtifact) error {
	mix, err := a.Mixture()
	if err != nil {
		return err
	}
	hash, err := checkpoint.HashMixture(a)
	if err != nil {
		return err
	}
	m := &Model{
		Name:      name,
		Version:   1,
		Hash:      hash,
		Cfg:       a.Cfg,
		Members:   mix.Ranks,
		Weights:   mix.Weights,
		LatentDim: a.LatentDim(),
		OutputDim: mix.OutputDim(),
		sampler:   mix,
	}
	if e.cfg.Float32 {
		m.sampler = mix.Narrow()
	}
	if old := e.cur.Load(); old != nil {
		m.Version = old.Version + 1
	}
	e.cur.Store(m)
	return nil
}

// Model returns the currently served model.
func (e *Engine) Model() *Model { return e.cur.Load() }

// QueueDepth returns the number of requests waiting in the queue.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Close drains the queue and stops the workers. Requests already queued
// are served; new submissions fail with ErrStopped.
func (e *Engine) Close() {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	e.closeOnce.Do(func() { close(e.closing) })
	e.wg.Wait()
	// A submission racing with worker exit can still have made the queue
	// (it held closeMu before closed flipped); fail it rather than leave
	// the caller waiting.
	for {
		select {
		case req := <-e.queue:
			req.done <- genResult{err: ErrStopped}
		default:
			return
		}
	}
}

// Generate returns n samples from the served mixture, coalesced with
// concurrent callers into shared forward passes. It blocks until the
// samples are ready, ctx is done, or the request is shed.
func (e *Engine) Generate(ctx context.Context, n int) (*tensor.Mat, error) {
	started := time.Now()
	out, err := e.generate(ctx, n)
	e.metrics.ObserveRequest(n, time.Since(started), err)
	return out, err
}

func (e *Engine) generate(ctx context.Context, n int) (*tensor.Mat, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: sample count %d must be positive", n)
	}
	if n > MaxSamplesPerRequest {
		return nil, fmt.Errorf("serve: sample count %d exceeds limit %d", n, MaxSamplesPerRequest)
	}
	req := &genRequest{ctx: ctx, n: n, done: make(chan genResult, 1)}
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return nil, ErrStopped
	}
	select {
	case e.queue <- req:
		e.closeMu.RUnlock()
	default:
		e.closeMu.RUnlock()
		e.metrics.ObserveShed()
		return nil, ErrOverloaded
	}
	select {
	case res := <-req.done:
		return res.out, res.err
	case <-ctx.Done():
		// The worker will find the expired context and drop the request.
		return nil, ctx.Err()
	}
}

// worker runs forward passes over coalesced request batches on the model
// current when each batch starts.
func (e *Engine) worker(id uint64) {
	defer e.wg.Done()
	rng := tensor.NewRNG(e.cfg.Seed + (id+1)*0x9e3779b97f4a7c15)
	// One sampling workspace per worker, reused across every coalesced
	// batch this worker ever runs (it is keyed to the goroutine, not the
	// model, so it survives hot reloads).
	sws := core.NewSampleWorkspace()
	for {
		var first *genRequest
		select {
		case first = <-e.queue:
		case <-e.closing:
			// Drain what is already queued, then exit.
			select {
			case first = <-e.queue:
			default:
				return
			}
		}
		batch := e.gather(first)
		e.runBatch(e.cur.Load(), batch, rng, sws)
	}
}

// gather coalesces queued requests behind first, up to MaxBatchSamples
// total samples or until BatchWait elapses with the queue empty.
func (e *Engine) gather(first *genRequest) []*genRequest {
	batch := []*genRequest{first}
	total := first.n
	drain := func() []*genRequest {
		for total < e.cfg.MaxBatchSamples {
			select {
			case r := <-e.queue:
				batch = append(batch, r)
				total += r.n
			default:
				return batch
			}
		}
		return batch
	}
	if e.cfg.BatchWait <= 0 {
		return drain()
	}
	timer := time.NewTimer(e.cfg.BatchWait)
	defer timer.Stop()
	for total < e.cfg.MaxBatchSamples {
		select {
		case r := <-e.queue:
			batch = append(batch, r)
			total += r.n
		case <-timer.C:
			return batch
		case <-e.closing:
			return drain()
		}
	}
	return batch
}

// runBatch executes one coalesced forward pass and distributes the rows
// back to the waiting requests. The shared batch is assembled in the
// worker's reusable sampling workspace; only the per-request result
// matrices are allocated, because their ownership transfers to the
// callers.
func (e *Engine) runBatch(m *Model, batch []*genRequest, rng *tensor.RNG, sws *core.SampleWorkspace) {
	// Drop requests whose caller already gave up.
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.done <- genResult{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	total := 0
	for _, r := range live {
		total += r.n
	}
	out := m.sampler.SampleWith(sws, total, m.LatentDim, rng)
	e.metrics.ObserveBatch(len(live))
	offset := 0
	for _, r := range live {
		sub := tensor.New(r.n, out.Cols)
		copy(sub.Data, out.Data[offset*out.Cols:])
		offset += r.n
		r.done <- genResult{out: sub}
	}
}
