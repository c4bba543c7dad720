// Package gateway is the multi-node serving frontend: it consistent-hash
// routes /v1/generate requests across a table of backend serve replicas,
// ejects replicas that fail health probes (and readmits them when they
// recover), hedges slow requests against a second replica under a capped
// budget, retries connection errors with bounded backoff, and keeps the
// fleet's models fresh by watching for new training artifacts and
// hot-reloading them replica by replica. It is the serving analogue of
// distributing the cellular grid across training nodes: the trained
// ensemble, spread over a serving tier, behind one endpoint.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxProxyBody bounds a client /v1/generate request body, mirroring the
// replica-side limit.
const maxProxyBody = 1 << 20

// Options configures a Gateway.
type Options struct {
	// Replicas are the backend base URLs (http://host:port). Required.
	Replicas []string
	// VirtualNodes per replica on the hash ring (default 64).
	VirtualNodes int
	// Table tunes health probing, ejection and readmission.
	Table TableOptions
	// RequestTimeout bounds one client request end to end across all
	// attempts (default 30 s).
	RequestTimeout time.Duration
	// MaxAttempts caps the sequential attempts per request — the first
	// try plus retries on retryable failures (default 3, bounded by the
	// replica count).
	MaxAttempts int
	// RetryBackoff is the initial delay before a retry; it doubles per
	// retry, capped at 8× (default 10 ms).
	RetryBackoff time.Duration
	// HedgeQuantile is the tracked latency quantile that arms the hedge
	// timer (default 0.99).
	HedgeQuantile float64
	// HedgeMin/HedgeMax clamp the hedge delay; before enough latency
	// samples exist, HedgeMax is used (defaults 1 ms / 250 ms).
	HedgeMin, HedgeMax time.Duration
	// HedgeBudgetPercent caps launched hedges at this percentage of
	// routed requests; 0 (the zero value) disables hedging. cmd/gateway
	// enables a 10% budget by default.
	HedgeBudgetPercent int
	// hedgeWarmup is the latency sample count required before the
	// tracked quantile is trusted.
}

// hedgeWarmupSamples is the latency observation count below which the
// hedge delay stays at HedgeMax (the tracked p99 is noise until then).
const hedgeWarmupSamples = 32

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.MaxAttempts > len(o.Replicas) && len(o.Replicas) > 0 {
		o.MaxAttempts = len(o.Replicas)
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile >= 1 {
		o.HedgeQuantile = 0.99
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = 250 * time.Millisecond
	}
	if o.HedgeBudgetPercent < 0 {
		o.HedgeBudgetPercent = 0
	}
	return o
}

// Gateway routes client requests across the replica table.
type Gateway struct {
	opts    Options
	ring    *Ring
	table   *Table
	metrics *Metrics
	client  *http.Client
	mux     *http.ServeMux

	counter  atomic.Uint64 // spreads keyless requests over the ring
	draining atomic.Bool

	// seqPool recycles ring-walk scratch slices on the request path.
	seqPool sync.Pool
}

// New builds a gateway over the configured replicas. Call Start to begin
// health probing and Stop to halt it.
func New(opts Options) (*Gateway, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: at least one replica URL required")
	}
	opts = opts.withDefaults()
	metrics := NewMetrics(len(opts.Replicas))
	g := &Gateway{
		opts:    opts,
		ring:    NewRing(len(opts.Replicas), opts.VirtualNodes),
		table:   NewTable(opts.Replicas, opts.Table, metrics),
		metrics: metrics,
		client: &http.Client{
			Timeout: opts.RequestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		mux: http.NewServeMux(),
	}
	g.seqPool.New = func() any { s := make([]int, 0, len(opts.Replicas)); return &s }
	g.mux.HandleFunc("/v1/generate", g.handleGenerate)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/replicaz", g.handleReplicaz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
}

// Start launches the background health prober (after one synchronous
// sweep, so routing starts with fresh replica state).
func (g *Gateway) Start() {
	g.table.ProbeAll()
	g.table.Start()
}

// Stop halts background probing.
func (g *Gateway) Stop() { g.table.Stop() }

// Table exposes the replica table (deployer, tests, /replicaz).
func (g *Gateway) Table() *Table { return g.table }

// Metrics exposes the gateway metrics set.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// SetDraining flips /healthz to 503 ahead of shutdown.
func (g *Gateway) SetDraining(v bool) { g.draining.Store(v) }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// RouteKeyHeader lets clients pin a request to a ring position (session
// affinity); without it the gateway spreads requests uniformly.
const RouteKeyHeader = "X-Route-Key"

// handleGenerate is the routed data path: pick candidates by consistent
// hash, forward with bounded retry and a hedged second attempt, stream
// the winning replica response back to the client.
func (g *Gateway) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if g.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	// The model name shards candidate selection; tolerate an empty body
	// (replicas default it) but reject JSON that does not even parse, so
	// garbage fails fast here instead of fanning out to replicas.
	var req struct {
		Model string `json:"model"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
	} else {
		body = []byte("{}")
	}
	key := r.Header.Get(RouteKeyHeader)
	if key == "" {
		// No affinity requested: spread over the ring by request count.
		key = strconv.FormatUint(g.counter.Add(1), 10)
	}
	key = req.Model + "#" + key

	g.metrics.requests.Inc()
	started := time.Now()
	res := g.route(r.Context(), key, req.Model, body)
	g.metrics.ObserveRoute(time.Since(started), res.err != nil)
	if res.err != nil {
		httpError(w, http.StatusBadGateway, "all replicas failed: %v", res.err)
		return
	}
	if ct := res.contentType; ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// fwdResult is one replica attempt's outcome.
type fwdResult struct {
	replica     *Replica
	status      int
	contentType string
	body        []byte
	err         error
	hedged      bool // launched by the hedge timer
}

// retryable reports whether the attempt should be retried on another
// replica: transport errors and replica-unavailable statuses. 429 is
// retried too — another replica may have queue headroom — but without
// striking the shedding replica (load is not failure).
func (r fwdResult) retryable() bool {
	if r.err != nil {
		return true
	}
	switch r.status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// strikeWorthy reports whether the failure should count toward ejection.
func (r fwdResult) strikeWorthy() bool {
	return r.err != nil || r.status == http.StatusBadGateway ||
		r.status == http.StatusServiceUnavailable || r.status == http.StatusGatewayTimeout
}

// candidates assembles the attempt order for key: routable replicas that
// host the model, in ring order, with ejected hosts appended as a last
// resort so a fully-ejected table still tries rather than blackholing.
func (g *Gateway) candidates(dst []*Replica, key, model string) []*Replica {
	seqp := g.seqPool.Get().(*[]int)
	seq := g.ring.Sequence((*seqp)[:0], key)
	replicas := g.table.Replicas()
	for _, i := range seq {
		r := replicas[i]
		if r.Routable() && r.HostsModel(model) {
			dst = append(dst, r)
		}
	}
	for _, i := range seq {
		r := replicas[i]
		if !r.Routable() && r.HostsModel(model) {
			dst = append(dst, r)
		}
	}
	if len(dst) == 0 {
		// Model filter excluded everything (e.g. stale health reports):
		// fall back to plain ring order.
		for _, i := range seq {
			dst = append(dst, replicas[i])
		}
	}
	*seqp = seq
	g.seqPool.Put(seqp)
	return dst
}

// hedgeDelay returns how long the primary attempt may run before a hedge
// is launched: the tracked HedgeQuantile of route latency, clamped to
// [HedgeMin, HedgeMax], or HedgeMax until enough samples exist.
func (g *Gateway) hedgeDelay() time.Duration {
	q, n := g.metrics.LatencyQuantile(g.opts.HedgeQuantile)
	if n < hedgeWarmupSamples {
		return g.opts.HedgeMax
	}
	return min(max(time.Duration(q*float64(time.Second)), g.opts.HedgeMin), g.opts.HedgeMax)
}

// hedgeAllowed enforces the hedge budget: launched hedges must stay
// under HedgeBudgetPercent of routed requests (with a small floor so the
// first requests can hedge at all).
func (g *Gateway) hedgeAllowed() bool {
	if g.opts.HedgeBudgetPercent <= 0 {
		return false
	}
	hedges := g.metrics.Hedges()
	requests := g.metrics.Requests()
	return hedges*100 < requests*uint64(g.opts.HedgeBudgetPercent)+100
}

// route runs the attempt loop for one client request: sequential retries
// with exponential backoff over the candidate list, plus at most one
// hedged parallel attempt when the primary exceeds the tracked tail
// latency. The first acceptable response wins; losers are cancelled via
// the shared context when route returns.
func (g *Gateway) route(ctx context.Context, key, model string, body []byte) fwdResult {
	cands := g.candidates(nil, key, model)
	if len(cands) == 0 {
		return fwdResult{err: errors.New("no replicas available")}
	}
	maxAttempts := min(g.opts.MaxAttempts, len(cands))

	ctx, cancel := context.WithTimeout(ctx, g.opts.RequestTimeout)
	defer cancel()

	// results is buffered for every candidate so late finishers (a lost
	// hedge race, a cancelled straggler) never block their goroutine.
	results := make(chan fwdResult, len(cands))
	next, inFlight, attempts := 0, 0, 0
	launch := func(hedged bool) {
		rep := cands[next]
		next++
		inFlight++
		if !hedged {
			attempts++
		}
		go func() {
			res := g.forward(ctx, rep, body)
			res.hedged = hedged
			results <- res
		}()
	}
	launch(false)

	// The hedge timer races the primary attempt; it fires at most once
	// per request (one speculative duplicate, never a fan-out).
	var hedgeC <-chan time.Time
	if next < len(cands) && g.hedgeAllowed() {
		timer := time.NewTimer(g.hedgeDelay())
		defer timer.Stop()
		hedgeC = timer.C
	}

	backoff := g.opts.RetryBackoff
	var lastFail fwdResult
	for {
		select {
		case res := <-results:
			inFlight--
			if !res.retryable() {
				// First acceptable answer wins; any other attempt still in
				// flight is cancelled by the deferred ctx cancel.
				g.table.RecordForwardSuccess(res.replica)
				if res.hedged {
					g.metrics.hedgeWin.Inc()
				}
				return res
			}
			if res.strikeWorthy() {
				reason := "HTTP " + strconv.Itoa(res.status)
				if res.err != nil {
					reason = res.err.Error()
				}
				g.table.RecordFailure(res.replica, reason)
			}
			lastFail = res
			if next < len(cands) && attempts < maxAttempts && ctx.Err() == nil {
				g.metrics.retries.Inc()
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
				}
				backoff = min(2*backoff, 8*g.opts.RetryBackoff)
				launch(false)
			} else if inFlight == 0 {
				// Nothing in flight and nothing left to try. A transport
				// error surfaces as 502; a retryable HTTP status (e.g.
				// unanimous 429) passes through so the client sees the
				// real backpressure.
				return lastFail
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				g.metrics.hedges.Inc()
				launch(true)
			}
		case <-ctx.Done():
			return fwdResult{err: ctx.Err()}
		}
	}
}

// forward sends the buffered request to one replica and buffers its
// response (hedging requires both sides buffered).
func (g *Gateway) forward(ctx context.Context, rep *Replica, body []byte) fwdResult {
	g.metrics.forwards[rep.index].Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.URL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return fwdResult{replica: rep, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		g.metrics.forwardErrs[rep.index].Inc()
		return fwdResult{replica: rep, err: err}
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		g.metrics.forwardErrs[rep.index].Inc()
		return fwdResult{replica: rep, err: err}
	}
	res := fwdResult{
		replica:     rep,
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        data,
	}
	if res.strikeWorthy() {
		g.metrics.forwardErrs[rep.index].Inc()
	}
	return res
}

// maxPresizedBody caps the Content-Length readBody allocates up front, so
// a header alone cannot make the gateway allocate more.
const maxPresizedBody = 128 << 20

// readBody reads a replica response into a buffer of exactly its declared
// length (a shorter body is an error) when that is within maxPresizedBody,
// else, as one without a length, by growing a buffer.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPresizedBody {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(resp.Body)
}

// handleHealthz reports gateway liveness: ok while at least one replica
// is routable.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	routable := g.table.RoutableCount()
	st := map[string]any{
		"status":   "ok",
		"replicas": len(g.table.Replicas()),
		"routable": routable,
	}
	w.Header().Set("Content-Type", "application/json")
	if g.draining.Load() || routable == 0 {
		st["status"] = "unavailable"
		if g.draining.Load() {
			st["status"] = "draining"
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

func (g *Gateway) handleReplicaz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"replicas": g.table.Info()})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.metrics.WriteText(w)
}
