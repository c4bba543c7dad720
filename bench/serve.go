package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/gateway"
	"cellgan/internal/serve"
	"cellgan/internal/tensor"
)

// serveSpec is one serving workload: the samples per request and the
// measured request rate of the whole fleet on the reference host, from which
// the request count for a --seconds budget follows.
type serveSpec struct {
	n       int     // samples per request
	reqPerS float64 // closed-loop rate on the reference host
	clients int     // closed-loop callers
	warmup  int
	host    sensitivity
}

// serve-bulk keeps two processors busy with two callers. serve-small needs
// eight: with two the processors idle three quarters of the time, and what
// the clients then measure is how fast the hypervisor wakes an idle
// processor (README, "Calibration").
var serveSpecs = map[string]serveSpec{
	"serve-small": {n: 1, reqPerS: 1500, clients: 8, warmup: 400, host: requestBound},
	"serve-bulk":  {n: 256, reqPerS: 26, clients: 2, warmup: 20, host: computeBound},
}

const (
	modelName = "digits"
	replicas  = 2
)

func (s serveSpec) requests(budgetS float64, smoke bool) (warm, timed int) {
	if smoke {
		return 4, 20
	}
	timed = int(math.Round(budgetS * s.reqPerS))
	if timed < 50 {
		timed = 50
	}
	return s.warmup, timed
}

// artifactConfig is the training run that produces the serving artifact: the
// paper MLP on a 2×2 grid for two iterations, with small batches because the
// cost of a forward pass at serving time depends on the architecture only.
func artifactConfig(seed uint64, smoke bool) config.Config {
	c := config.Default()
	c.Seed, c.Iterations, c.BatchSize, c.BatchesPerIteration, c.DatasetSize = seed, 2, 16, 1, 500
	if smoke {
		return shrink(c)
	}
	return c
}

// artifactInfo is what the process that trained the artifact reports back.
type artifactInfo struct {
	BestFitness float64            `json:"best_fitness"`
	Checkpoint  map[string]float64 `json:"checkpoint"` // the checkpoint.* metrics
}

// makeArtifact trains, exports and saves the serving artifact. It runs in a
// child process (bench --make-artifact PATH): training needs several times
// the memory serving does, and the workload's peak_rss_mb is the serving
// process's, not the set-up's.
func makeArtifact(seed uint64, smoke, traced bool, path string) (artifactInfo, error) {
	res, err := core.RunParallel(artifactConfig(seed, smoke), core.RunOptions{})
	if err != nil {
		return artifactInfo{}, err
	}
	m := metricSet{}
	if traced {
		if err := checkpointMetrics(m, res, filepath.Dir(path)); err != nil {
			return artifactInfo{}, err
		}
	}
	a, err := checkpoint.ExportMixture(res, res.BestRank)
	if err != nil {
		return artifactInfo{}, err
	}
	if err := checkpoint.SaveMixtureFile(path, a); err != nil {
		return artifactInfo{}, err
	}
	return artifactInfo{BestFitness: res.Best().MixtureFitness, Checkpoint: m}, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// childEnv marks a process started by the harness itself.
const childEnv = "BENCH_CHILD=1"

// makeArtifactInChild runs makeArtifact in a child of this executable and
// waits for it to end.
func makeArtifactInChild(seed uint64, smoke, traced bool, path string) (artifactInfo, error) {
	var info artifactInfo
	exe, err := os.Executable()
	if err != nil {
		return info, err
	}
	cmd := exec.Command(exe, "--make-artifact", path, "--seed", strconv.FormatUint(seed, 10), "--smoke="+strconv.FormatBool(smoke), "--trace", strconv.Itoa(btoi(traced)))
	cmd.Env = append(os.Environ(), childEnv)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return info, fmt.Errorf("training the artifact: %w", err)
	}
	if err := json.Unmarshal(out, &info); err != nil {
		return info, fmt.Errorf("training the artifact: %w", err)
	}
	return info, nil
}

// fleet is the in-process serving stack: replicas, each a serve.Server over
// its own registry and engine on a loopback listener, behind one gateway.
type fleet struct {
	info     artifactInfo
	artifact *checkpoint.MixtureArtifact
	regs     []*serve.Registry
	urls     []string
	gw       *gateway.Gateway
	gwURL    string
	servers  []*http.Server
	mixPath  string
}

func listenAndServe(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns ErrServerClosed on Shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

// startFleet has the artifact trained and exported, then starts the replicas
// and the gateway with the settings cmd/serve and cmd/gateway default to.
func startFleet(seed uint64, smoke, traced bool, outDir string) (f *fleet, err error) {
	f = &fleet{mixPath: filepath.Join(outDir, fmt.Sprintf("mixture-%d.bin", os.Getpid()))}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	if f.info, err = makeArtifactInChild(seed, smoke, traced, f.mixPath); err != nil {
		return nil, err
	}
	if f.artifact, err = checkpoint.LoadMixtureFile(f.mixPath); err != nil {
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		reg := serve.NewRegistry(serve.EngineConfig{Seed: seed + uint64(i) + 1}, nil)
		f.regs = append(f.regs, reg)
		if err = reg.LoadFile(modelName, f.mixPath); err != nil {
			return nil, err
		}
		srv, url, err := listenAndServe(serve.NewServer(reg, 0))
		if err != nil {
			return nil, err
		}
		f.servers, f.urls = append(f.servers, srv), append(f.urls, url)
	}
	if f.gw, err = gateway.New(gateway.Options{Replicas: f.urls, HedgeBudgetPercent: 10}); err != nil {
		return nil, err
	}
	f.gw.Start()
	srv, url, err := listenAndServe(f.gw)
	if err != nil {
		return nil, err
	}
	f.servers, f.gwURL = append(f.servers, srv), url
	return f, nil
}

func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
	if f.gw != nil {
		f.gw.Stop()
	}
	for _, r := range f.regs {
		r.Close()
	}
	os.Remove(f.mixPath)
}

// assertRoutable fails unless the gateway reports every replica routable.
func (f *fleet) assertRoutable() error {
	resp, err := http.Get(f.gwURL + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Status   string `json:"status"`
		Replicas int    `json:"replicas"`
		Routable int    `json:"routable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("gateway /healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK || st.Replicas != replicas || st.Routable != replicas {
		return fmt.Errorf("gateway /healthz: status %d %q, %d of %d replicas routable, want %d", resp.StatusCode, st.Status, st.Routable, st.Replicas, replicas)
	}
	return nil
}

// assertBothServed fails unless every replica has served a request, which
// is what makes the fleet a fleet before timing starts.
func (f *fleet) assertBothServed() error {
	for i, r := range f.regs {
		if r.Metrics().Requests() == 0 {
			return fmt.Errorf("replica %d served no request during warm-up", i)
		}
	}
	return nil
}

// checkSamples reports whether data holds exactly n·dim finite values in
// [−1, 1], the range of the generators' tanh output.
func checkSamples(data []float64, n, dim int) error {
	if len(data) != n*dim {
		return fmt.Errorf("got %d values, want %d×%d", len(data), n, dim)
	}
	for _, v := range data {
		if !(v >= -1 && v <= 1) { // also false for NaN
			return fmt.Errorf("sample value %v outside [-1, 1]", v)
		}
	}
	return nil
}

// checkBody decodes one /v1/generate response and checks its samples.
func checkBody(body []byte, n int) error {
	var resp serve.GenerateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(resp.Data)
	if err != nil {
		return err
	}
	if len(raw)%8 != 0 {
		return fmt.Errorf("short body: %d bytes", len(raw))
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return checkSamples(vals, n, 784)
}

// stream is the request stream of a run, a pure function of the seed: every
// request carries its own route key, so the gateway's ring placement is part
// of the generated input.
type stream struct {
	body []byte
	keys []string
	n    int
}

func newStream(seed uint64, n, count int) stream {
	rng := tensor.NewRNG(seed ^ 0x5e12e)
	body, _ := json.Marshal(serve.GenerateRequest{Model: modelName, N: n, Encoding: "base64"})
	keys := make([]string, count)
	for i := range keys {
		keys[i] = strconv.FormatUint(rng.Uint64(), 16)
	}
	return stream{body: body, keys: keys, n: n}
}

// doer issues request i for one client and returns its latency as the
// client sees it; checking the answer happens after the clock stops.
type doer func(client, i int) (ms float64, err error)

// httpDoer posts the stream's requests to the target chosen per request.
func (s stream) httpDoer(target func(i int) string) doer {
	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return func(_, i int) (float64, error) {
		req, err := http.NewRequest(http.MethodPost, target(i)+"/v1/generate", bytes.NewReader(s.body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(gateway.RouteKeyHeader, s.keys[i])
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			return ms, err
		}
		if resp.StatusCode != http.StatusOK {
			return ms, fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
		}
		return ms, checkBody(body, s.n)
	}
}

// closedLoop issues requests [from, to) of a stream from `clients` callers
// that each wait for a reply before sending the next, until the stream or
// the wall budget (times slowHostFactor; 0 = none) runs out. name, when rec
// is non-nil, is the span recorded around each request.
func closedLoop(clients, from, to int, do doer, origin time.Time, budget time.Duration, rec *recorder, name string) []op {
	deadline := time.Now().Add(time.Duration(slowHostFactor * float64(budget)))
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Since(origin).Nanoseconds()
			for {
				i := int(next.Add(1) - 1)
				if i >= to || (budget > 0 && time.Now().After(deadline)) {
					return
				}
				_, end := rec.start(name, 0, i)
				ms, err := do(c, i)
				end()
				now := time.Since(origin).Nanoseconds()
				per[c] = append(per[c], op{worker: c, endNs: now, ms: ms, cycle: float64(now-prev) / 1e6, ok: err == nil})
				prev = now
			}
		}(c)
	}
	wg.Wait()
	var all []op
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

func countFailed(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// promValue sums the samples of a metric family in a Prometheus text
// exposition (all label sets).
func promValue(text, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// prepare starts the fleet, warms it through the gateway and checks that it
// is the fleet the workload claims to measure.
func prepare(spec serveSpec, seed uint64, smoke, traced bool, warm, total int, outDir string) (*fleet, stream, doer, error) {
	f, err := startFleet(seed, smoke, traced, outDir)
	if err != nil {
		return nil, stream{}, nil, err
	}
	if err := f.assertRoutable(); err != nil {
		f.stop()
		return nil, stream{}, nil, err
	}
	st := newStream(seed, spec.n, total)
	viaGateway := st.httpDoer(func(int) string { return f.gwURL })
	if bad := countFailed(closedLoop(spec.clients, 0, warm, viaGateway, time.Now(), 0, nil, "")); bad > 0 {
		f.stop()
		return nil, stream{}, nil, fmt.Errorf("%d of %d warm-up requests failed", bad, warm)
	}
	if err := f.assertBothServed(); err != nil {
		f.stop()
		return nil, stream{}, nil, err
	}
	return f, st, viaGateway, nil
}

// serveUntraced is a --trace 0 run of a serving workload.
func serveUntraced(name string, seed uint64, seconds int, smoke bool, d *detail, outDir string) (result, error) {
	spec := serveSpecs[name]
	warm, timed := spec.requests(float64(seconds), smoke)
	// Set-up — training and exporting the artifact, starting the fleet,
	// warming it — runs several times; the last fleet is the one timed.
	var (
		f                    *fleet
		viaGateway           doer
		setupWall, setupHost []float64
	)
	for len(setupWall) < setupSamples(smoke) {
		if f != nil {
			f.stop()
		}
		clock := startHostClock(time.Now(), spec.host)
		var err error
		f, _, viaGateway, err = prepare(spec, seed, smoke, false, warm, warm+timed, outDir)
		clock.end()
		if err != nil {
			return result{}, err
		}
		took := clock.sinceOrigin()
		w := time.Duration(took).Seconds()
		setupWall, setupHost = append(setupWall, w), append(setupHost, w*clock.scaleTotal(0, took))
	}
	defer f.stop()

	began := time.Now()
	clock := startHostClock(began, spec.host)
	ops := closedLoop(spec.clients, warm, warm+timed, viaGateway, began, time.Duration(seconds)*time.Second, nil, "")
	if len(ops) < timed {
		d.note(fmt.Sprintf("host slower than the counts assume: stopped at the wall deadline after %d of %d requests", len(ops), timed))
	}
	clock.end()
	rss := peakRSSMB()
	sum := summarize(ops, clock)
	failed := countFailed(ops)

	var shed float64
	for _, r := range f.regs {
		var buf bytes.Buffer
		r.Metrics().WriteText(&buf)
		shed += promValue(buf.String(), "serve_requests_shed_total")
	}
	d.Sizes["requests"], d.Sizes["warmup"], d.Sizes["n"], d.Sizes["clients"] = timed, warm, spec.n, spec.clients
	d.Extra["best_fitness"] = f.info.BestFitness
	d.Extra["shed"] = shed
	recordSummary(d, sum)
	if shed > 0 {
		d.note(fmt.Sprintf("%g requests shed by the replicas", shed))
	}
	d.Extra["setup_s.wall"] = median(setupWall)
	m := metricSet{
		"setup_s":        median(setupHost),
		"iter_ms_p50":    sum.cyc,
		"latency_ms_p50": sum.p50,
		"requests_per_s": sum.rate,
		"peak_rss_mb":    rss,
	}
	return result{Correct: failed == 0 && shed == 0, Attempted: len(ops), Failed: failed, Metrics: m.render(endToEnd)}, nil
}

// Span names of the depth ladder: one request stream issued at four depths.
const (
	spanMixture = "core.mixture_sample"
	spanEngine  = "serve.engine"
	spanHTTP    = "serve.http"
	spanGateway = "gateway"
)

// A traced serving run issues the same request stream at four depths, plus
// once more through the gateway without spans. Each pass gets serveTraceShare
// of the --seconds budget, cut into ladderRounds rounds that visit the passes
// in turn, so that a slow phase of the host falls on every depth alike.
const (
	serveTraceShare = 0.16
	ladderRounds    = 3
)

// serveTraced is a --trace 1 run of a serving workload: the depth ladder. A
// layer's self time is its depth's median minus the next depth's.
func serveTraced(name string, seed uint64, seconds int, smoke bool, d *detail, outDir string) (result, error) {
	spec := serveSpecs[name]
	warm, timed := spec.requests(float64(seconds)*serveTraceShare, smoke)
	f, st, viaGateway, err := prepare(spec, seed, smoke, true, warm, warm+timed, outDir)
	if err != nil {
		return result{}, err
	}
	defer f.stop()
	clients := spec.clients
	m := metricSet{}

	// Depth 1 is the mixture's forward pass, one private clone per client as
	// the engine's workers have.
	proto, err := f.artifact.Mixture()
	if err != nil {
		return result{}, err
	}
	mixes := make([]*core.Mixture, clients)
	spaces := make([]*core.SampleWorkspace, clients)
	rngs := make([]*tensor.RNG, clients)
	for c := range mixes {
		mixes[c], spaces[c], rngs[c] = proto.Clone(), core.NewSampleWorkspace(), tensor.NewRNG(seed+uint64(c))
	}
	latent := f.artifact.LatentDim()
	rec := newRecorder()
	passes := []struct {
		span string
		rec  *recorder
		do   doer
		ops  []op
	}{
		{span: "", do: viaGateway}, // the untraced reference
		{span: spanMixture, rec: rec, do: func(c, _ int) (float64, error) {
			t0 := time.Now()
			out := mixes[c].SampleWith(spaces[c], spec.n, latent, rngs[c])
			ms := float64(time.Since(t0)) / 1e6
			return ms, checkSamples(out.Data, spec.n, 784)
		}},
		// Depth 2: the engine (queue, coalescing, workers), replicas alternating.
		{span: spanEngine, rec: rec, do: func(_, i int) (float64, error) {
			eng, err := f.regs[i%replicas].Engine(modelName)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			out, err := eng.Generate(context.Background(), spec.n)
			ms := float64(time.Since(t0)) / 1e6
			if err != nil {
				return ms, err
			}
			return ms, checkSamples(out.Data, spec.n, 784)
		}},
		// Depth 3: a replica's HTTP surface. Depth 4: the gateway.
		{span: spanHTTP, rec: rec, do: st.httpDoer(func(i int) string { return f.urls[i%replicas] })},
		{span: spanGateway, rec: rec, do: viaGateway},
	}
	var cost procDelta
	budget := time.Duration(float64(seconds) * serveTraceShare / ladderRounds * float64(time.Second))
	for _, r := range cut(timed, ladderRounds) {
		for p := range passes {
			before := sampleProc()
			ops := closedLoop(clients, warm+r[0], warm+r[1], passes[p].do, time.Now(), budget, passes[p].rec, passes[p].span)
			if p == 0 {
				c := before.until(sampleProc(), len(ops))
				cost.wallS, cost.cpuS, cost.gcPauseMs = cost.wallS+c.wallS, cost.cpuS+c.cpuS, cost.gcPauseMs+c.gcPauseMs
				cost.allocMBPerOp += c.allocMBPerOp / ladderRounds
			}
			passes[p].ops = append(passes[p].ops, ops...)
		}
	}
	var all []op
	p50 := make([]float64, len(passes))
	for p := range passes {
		all = append(all, passes[p].ops...)
		p50[p] = summarize(passes[p].ops, nil).p50
	}
	plain, d1, d2, d3, d4 := p50[0], p50[1], p50[2], p50[3], p50[4]

	m["core.mixture_sample_ms"] = d1
	m["serve.engine_ms_p50"], m["serve.engine_self_ms"] = d2, d2-d1
	m["serve.http_ms_p50"], m["serve.http_self_ms"] = d3, d3-d2
	m["gateway.ms_p50"], m["gateway.self_ms"] = d4, d4-d3
	gwMs := rec.byName()[spanGateway]
	p99 := supportedPercentile(len(gwMs), 0.99)
	m["gateway.latency_ms_p99"] = percentile(sortedCopy(gwMs), p99)
	d.Extra["gateway.latency_ms_p99.percentile"] = p99 * 100
	m["proc.trace_overhead_pct"] = 100 * (d4 - plain) / plain

	var batchSum, batchCount float64
	for _, r := range f.regs {
		var buf bytes.Buffer
		r.Metrics().WriteText(&buf)
		text := buf.String()
		batchSum += promValue(text, "serve_batch_requests_sum")
		batchCount += promValue(text, "serve_batch_requests_count")
		m["serve.shed"] += promValue(text, "serve_requests_shed_total")
		if mb := float64(r.Metrics().MaxBatch()); mb > m["serve.batch_max"] {
			m["serve.batch_max"] = mb
		}
	}
	if batchCount > 0 {
		m["serve.batch_mean"] = batchSum / batchCount
	}
	var buf bytes.Buffer
	f.gw.Metrics().WriteText(&buf)
	m["gateway.hedges"] = float64(f.gw.Metrics().Hedges())
	m["gateway.retries"] = promValue(buf.String(), "gateway_retries_total")

	if cost.wallS > 0 {
		cost.cpuUtil = cost.cpuS / (cost.wallS * float64(runtime.NumCPU()))
	}
	m["proc.cpu_s"], m["proc.cpu_util"], m["proc.wall_s"] = cost.cpuS, cost.cpuUtil, cost.wallS
	m["proc.alloc_mb_per_op"], m["proc.gc_pause_ms"] = cost.allocMBPerOp, cost.gcPauseMs

	// The layers under the forward pass at the request's batch size, and
	// what set-up paid to produce the artifact.
	reps := 9
	if smoke {
		reps = 2
	}
	tensorMetrics(m, f.artifact.Cfg, spec.n, reps)
	nnForwardMetrics(m, f.artifact.Cfg, spec.n, reps)
	for k, v := range f.info.Checkpoint {
		m[k] = v
	}
	m["core.best_fitness"] = f.info.BestFitness

	if err := rec.write(filepath.Join(outDir, "trace-"+name+".json"), name, seed); err != nil {
		return result{}, err
	}
	d.Sizes["requests_per_depth"], d.Sizes["n"], d.Sizes["clients"] = timed, spec.n, clients
	d.Samples["ops"], d.Samples["spans"] = len(all), len(rec.spans)
	d.Extra["latency_ms_p50"] = plain
	failed := countFailed(all)
	return result{Correct: failed == 0 && m["serve.shed"] == 0, Attempted: len(all), Failed: failed, Metrics: m.render(perLayer)}, nil
}
