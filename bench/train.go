package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
)

// trainSpec is one training workload: a shape fixed by the issue and the
// measured cost of one grid iteration on the reference host, from which the
// iteration count for a --seconds budget follows. Work is fixed by count so
// that both sides of an A/B do exactly the same thing.
type trainSpec struct {
	async  bool
	iterMs float64
	// traceShare is the part of the --seconds budget each pass of a traced
	// run gets (runner, replay, sequential baseline, and whatever else the
	// workload adds), so that a traced run costs about as much wall time as
	// an untraced one.
	traceShare float64
	host       sensitivity
	cfg        func(seed uint64) config.Config
}

// trainWarmup iterations complete before the timed section starts; their
// cost (with cell and world construction) is the training set-up time.
const trainWarmup = 1

// setupSamples is how many times a run sets its workload up; setup_s is the
// median of them. A smoke run sets up once.
func setupSamples(smoke bool) int {
	if smoke {
		return 1
	}
	return 3
}

// trainDataset bounds the procedural dataset; samples are rendered on
// demand, so the size only sets the index range batches draw from.
const trainDataset = 2000

var trainSpecs = map[string]trainSpec{
	"mlp-compute": {iterMs: 950, traceShare: 0.22, host: computeBound, cfg: func(seed uint64) config.Config {
		c := config.Default() // paper Table I: 64→256→256→784, tanh, Adam
		c.Seed, c.BatchSize, c.BatchesPerIteration, c.DatasetSize = seed, 50, 2, trainDataset
		return c
	}},
	"dcgan-compute": {iterMs: 1300, traceShare: 0.22, host: computeBound, cfg: func(seed uint64) config.Config {
		c := config.Default()
		c.NetworkType = "CNN"
		c.Seed, c.BatchSize, c.BatchesPerIteration, c.DatasetSize = seed, 16, 2, trainDataset
		return c
	}},
	// Two whole cluster jobs ride on the traced pass of exchange-lockstep,
	// and a parallel pass on that of exchange-async.
	"exchange-lockstep": {iterMs: 750, traceShare: 0.13, host: computeBound, cfg: exchangeConfig},
	"exchange-async":    {async: true, iterMs: 420, traceShare: 0.13, host: computeBound, cfg: exchangeConfig},
}

func exchangeConfig(seed uint64) config.Config {
	c := config.Default().WithGrid(3, 3)
	c.NeuronsPerHidden = 128
	c.Seed, c.BatchSize, c.BatchesPerIteration, c.DatasetSize = seed, 8, 1, trainDataset
	return c
}

// shrink narrows a config to the smoke size: every code path and check of the
// workload at a cost the harness's own tests can afford.
func shrink(c config.Config) config.Config {
	c.NeuronsPerHidden, c.InputNeurons, c.BatchSize, c.DatasetSize = 32, 16, 4, 200
	return c
}

// config returns the workload's configuration, without an iteration count.
func (s trainSpec) config(seed uint64, smoke bool) config.Config {
	if smoke {
		return shrink(s.cfg(seed))
	}
	return s.cfg(seed)
}

// iterations returns the count for a budget of budgetMs of timed work.
func (s trainSpec) iterations(budgetMs float64, smoke bool) int {
	if smoke {
		return trainWarmup + 2
	}
	n := int(math.Round(budgetMs / s.iterMs))
	if n < 3 {
		n = 3
	}
	return trainWarmup + n
}

// pass is the outcome of one run of a training loop, whoever drove it.
type pass struct {
	res       *core.Result // nil for the replay
	fulls     []*core.FullState
	ops       []op  // timed cell iterations (k > trainWarmup)
	startNs   int64 // when the last rank finished warm-up, ns since the pass began
	attempted int
	failed    int
	best      float64
	sum       opSummary
	host      *hostClock
	// reached is the iteration every cell completed; below cfg.Iterations
	// only when the wall deadline stopped the run.
	reached int
}

// progress collects completion times of cell iterations the way a caller of
// core.RunOptions.Progress sees them.
type progress struct {
	origin time.Time
	mu     sync.Mutex
	last   map[int]int64
	pass   *pass
}

// newProgress starts the clock of a pass.
func newProgress() *progress {
	return &progress{origin: time.Now(), last: map[int]int64{}, pass: &pass{}}
}

func (p *progress) observe(rank int, st core.IterStats) {
	now := time.Since(p.origin).Nanoseconds()
	bad := !finite(st.GenLoss, st.DiscLoss, st.GenFitness, st.DiscFitness, st.MixtureFitness, st.GenLR, st.DiscLR)
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.last[rank] // 0 = the pass's origin, before a rank's first report
	p.last[rank] = now
	p.pass.attempted++
	if bad {
		p.pass.failed++
	}
	if st.Iteration <= trainWarmup {
		if now > p.pass.startNs {
			p.pass.startNs = now
		}
		return
	}
	ms := float64(now-prev) / 1e6
	p.pass.ops = append(p.pass.ops, op{worker: rank, endNs: now, ms: ms, cycle: ms, ok: !bad})
}

func (p *progress) finish(res *core.Result, fulls []*core.FullState) *pass {
	ps := p.pass
	ps.res, ps.fulls = res, fulls
	ps.sum = summarize(ps.ops, ps.host)
	if res != nil {
		ps.best = res.Best().MixtureFitness
	}
	return ps
}

// slowHostFactor bounds a timed section to this many times its --seconds
// budget. Counts are sized for the reference host; when the host is slower
// than that the section ends early, at an iteration or request boundary,
// rather than overrunning the time the driver allows a run.
const slowHostFactor = 1.25

// wallBudget is the wall budget of a timed section sized for `seconds`. A
// smoke run has none: its two iterations are the point, however slow the
// host or the race detector makes them.
func wallBudget(seconds float64, smoke bool) time.Duration {
	if smoke {
		return 0
	}
	return time.Duration(seconds * float64(time.Second))
}

// runRunner drives one of the repo's own runners from outside. A positive
// budget is the timed section's wall budget, enforced through the runner's
// own stop hook; budget 0 runs cfg.Iterations whatever it takes.
func runRunner(mode string, cfg config.Config, budget time.Duration, sens sensitivity) (*pass, error) {
	p := newProgress()
	p.pass.host = startHostClock(p.origin, sens)
	opts := core.RunOptions{Progress: p.observe}
	if budget > 0 {
		limit := time.Duration(slowHostFactor * float64(budget))
		opts.Stop = func() bool {
			p.mu.Lock()
			start := p.pass.startNs
			p.mu.Unlock()
			return start > 0 && time.Since(p.origin)-time.Duration(start) > limit
		}
	}
	res, err := core.Run(mode, cfg, opts)
	p.pass.host.end()
	if err != nil {
		return nil, fmt.Errorf("core.Run(%s): %w", mode, err)
	}
	ps := p.finish(res, res.Full)
	for _, c := range res.Cells {
		if budget == 0 && c.Last.Iteration != cfg.Iterations {
			return nil, fmt.Errorf("cell %d stopped at iteration %d of %d", c.Rank, c.Last.Iteration, cfg.Iterations)
		}
		if c.Rank == 0 || c.Last.Iteration < ps.reached {
			ps.reached = c.Last.Iteration
		}
	}
	if ps.reached <= trainWarmup {
		return nil, fmt.Errorf("core.Run(%s) reached iteration %d: nothing to time", mode, ps.reached)
	}
	return ps, nil
}

// oneIteration runs cfg for a single iteration and returns how long the
// runner took to bring every rank through it — a sample of the set-up time,
// on the wall clock and on the host clock — and the final state hash.
func oneIteration(mode string, cfg config.Config, sens sensitivity) (wall, onHost float64, hash string, err error) {
	cfg.Iterations = trainWarmup
	p := newProgress()
	clock := startHostClock(p.origin, sens)
	res, err := core.Run(mode, cfg, core.RunOptions{Progress: p.observe})
	clock.end()
	if err != nil {
		return 0, 0, "", fmt.Errorf("core.Run(%s), one iteration: %w", mode, err)
	}
	wall = time.Duration(p.pass.startNs).Seconds()
	return wall, wall * clock.scaleTotal(0, p.pass.startNs), stateHash(res.Full), nil
}

// stateHash is the SHA-256 of every cell's full state in rank order: the
// repo's bit-exactness contract says it is the same for every lockstep way
// of running one config.
func stateHash(fulls []*core.FullState) string {
	h := sha256.New()
	for _, f := range fulls {
		h.Write(f.Marshal())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Span names of the replay; layer = module name.
const (
	spanGridIter     = "grid_iter"
	spanIterate      = "core.cell_iterate"
	spanState        = "core.state"
	spanMarshal      = "core.marshal"
	spanAllgather    = "mpi.allgather"
	spanUnmarshal    = "core.unmarshal"
	spanSetNeighbors = "core.set_neighbors"
)

// replay runs the lockstep loop of core.RunParallel from outside, through
// the public pieces the runner is made of, with one span per call under a
// grid-iteration parent. It must end on the runner's state hash; if it does
// not, the spans describe some other computation and the run fails.
func replay(cfg config.Config, rec *recorder, stats *mpi.CommStats, sens sensitivity) (*pass, error) {
	g, err := core.BuildGridFor(cfg)
	if err != nil {
		return nil, err
	}
	n := g.Size()
	world, err := mpi.NewWorld(n)
	if err != nil {
		return nil, err
	}
	defer world.Close()

	p := newProgress()
	p.pass.host = startHostClock(p.origin, sens)
	fulls := make([]*core.FullState, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs <- func() error {
				comm, err := world.Comm(rank)
				if err != nil {
					return err
				}
				comm = mpi.InstrumentComm(comm, stats)
				cell, err := core.NewCellWithData(cfg, rank, g, nil, nil)
				if err != nil {
					return err
				}
				exchange := func(parent, k int) error {
					_, end := rec.start(spanState, parent, k)
					state, err := cell.State()
					end()
					if err != nil {
						return err
					}
					_, end = rec.start(spanMarshal, parent, k)
					body := state.Marshal()
					end()
					// The runner prefixes a stop-vote byte; keep the wire
					// size identical.
					payload := make([]byte, 1+len(body))
					copy(payload[1:], body)
					_, end = rec.start(spanAllgather, parent, k)
					parts, err := comm.Allgather(payload)
					end()
					if err != nil {
						return err
					}
					_, end = rec.start(spanUnmarshal, parent, k)
					states := make(map[int]*core.CellState, len(parts))
					for _, part := range parts {
						s, err := core.UnmarshalCellState(part[1:])
						if err != nil {
							end()
							return err
						}
						states[s.Rank] = s
					}
					end()
					_, end = rec.start(spanSetNeighbors, parent, k)
					err = cell.SetNeighbors(states)
					end()
					return err
				}
				if err := exchange(0, 0); err != nil {
					return err
				}
				for cell.Iteration() < cfg.Iterations {
					k := cell.Iteration() + 1
					parent, endIter := rec.start(spanGridIter, 0, k)
					_, end := rec.start(spanIterate, parent, k)
					st, err := cell.Iterate()
					end()
					if err != nil {
						return err
					}
					p.observe(rank, st)
					if err := exchange(parent, k); err != nil {
						return err
					}
					endIter()
				}
				fulls[rank], err = cell.FullState()
				return err
			}()
		}(rank)
	}
	wg.Wait()
	p.pass.host.end()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return p.finish(nil, fulls), nil
}

// replayShares reduces the replay's spans to the shares that say which layer
// limits the iteration. exchange is every exchange span over the
// grid-iteration spans; barrierWait is the part of it spent waiting for
// slower ranks rather than exchanging. In one grid iteration the rank that
// arrives last at the allgather waits for nobody, so the shortest allgather
// span of the iteration is what the collective itself costs and the rest of
// every other rank's span is wait.
type replayShares struct {
	exchange, barrierWait float64
	spanSumMsP50          float64 // median over (rank, k) of the children's total
}

func replayStats(spans []span) replayShares {
	minGather := map[int]float64{} // op (grid iteration) → shortest allgather
	for _, s := range spans {
		if s.Name == spanAllgather && s.Parent != 0 {
			if m, ok := minGather[s.Op]; !ok || s.ms() < m {
				minGather[s.Op] = s.ms()
			}
		}
	}
	var total, exchange, wait float64
	children := map[int]float64{}
	for _, s := range spans {
		switch {
		case s.Name == spanGridIter:
			total += s.ms()
		case s.Parent == 0:
			// initial exchange, outside any grid iteration
		case s.Name == spanAllgather:
			exchange += s.ms()
			wait += s.ms() - minGather[s.Op]
			children[s.Parent] += s.ms()
		case s.Name == spanIterate:
			children[s.Parent] += s.ms()
		default:
			exchange += s.ms()
			children[s.Parent] += s.ms()
		}
	}
	var sums []float64
	for _, v := range children {
		sums = append(sums, v)
	}
	sort.Float64s(sums)
	out := replayShares{spanSumMsP50: percentile(sums, 0.5)}
	if total > 0 {
		out.exchange, out.barrierWait = exchange/total, wait/total
	}
	return out
}

// trainUntraced is a --trace 0 run of a training workload.
func trainUntraced(name string, seed uint64, seconds int, smoke bool, d *detail) (result, error) {
	spec := trainSpecs[name]
	cfg := spec.config(seed, smoke)
	cfg.Iterations = spec.iterations(float64(seconds)*1000, smoke)
	mode := "par"
	if spec.async {
		mode = "async"
	}
	ps, err := runRunner(mode, cfg, wallBudget(float64(seconds), smoke), spec.host)
	if err != nil {
		return result{}, err
	}
	if ps.reached < cfg.Iterations {
		d.note(fmt.Sprintf("host slower than the counts assume: stopped at the wall deadline after %d of %d iterations", ps.reached, cfg.Iterations))
	}
	rss := peakRSSMB()
	d.Sizes["iterations"], d.Sizes["cells"] = ps.reached, cfg.NumCells()
	d.Sizes["batch"], d.Sizes["batches_per_iter"] = cfg.BatchSize, cfg.BatchesPerIteration
	d.Hashes["runner"] = stateHash(ps.fulls)
	d.Extra["best_fitness"] = ps.best
	recordSummary(d, ps.sum)

	// Construction and warm-up happen inside the runner, so set-up is
	// everything up to the moment the last rank left warm-up. One iteration
	// of the same config, run again, gives more samples of it and, on the
	// lockstep workloads, parallel against sequential: the bit-exactness
	// contract on this config and this host. The traced run compares the
	// full length.
	correct := ps.failed == 0
	wall := time.Duration(ps.startNs).Seconds()
	setupWall, setupHost := []float64{wall}, []float64{wall * ps.host.scaleTotal(0, ps.startNs)}
	samples := setupSamples(smoke)
	if !spec.async && samples < 2 {
		samples = 2 // the hash check needs a one-iteration parallel run
	}
	var hash string
	for len(setupWall) < samples {
		w, q, h, err := oneIteration(mode, cfg, spec.host)
		if err != nil {
			return result{}, err
		}
		setupWall, setupHost, hash = append(setupWall, w), append(setupHost, q), h
	}
	if !spec.async {
		_, _, seqHash, err := oneIteration("seq", cfg, spec.host)
		if err != nil {
			return result{}, err
		}
		d.Hashes["par_1iter"], d.Hashes["seq_1iter"] = hash, seqHash
		if hash != seqHash {
			correct = false
			d.note("parallel and sequential state hashes differ after one iteration")
		}
	}
	d.Extra["setup_s.wall"] = median(setupWall)
	m := metricSet{
		"setup_s":        median(setupHost),
		"iter_ms_p50":    ps.sum.cyc,
		"latency_ms_p50": ps.sum.p50,
		"requests_per_s": ps.sum.rate,
		"peak_rss_mb":    rss,
	}
	return result{Correct: correct, Attempted: ps.attempted, Failed: ps.failed, Metrics: m.render(endToEnd)}, nil
}

// recordSummary notes the sample count, the segment spreads, the tail, which
// is reported beside the end-to-end metrics, not among them, and what the
// host did during the timed section with the wall-clock readings it scaled.
func recordSummary(d *detail, s opSummary) {
	d.Samples["ops"] = s.n
	d.Extra["steal_share"], d.Extra["probe_ms"] = s.steal, s.probeMs
	d.Segments = s.segs
	d.Extra["iter_ms_p50.wall"], d.Extra["latency_ms_p50.wall"], d.Extra["requests_per_s.wall"] = s.wallCyc, s.wallP50, s.wallRate
	d.Extra["latency_ms_p95"], d.Extra["latency_ms_p95.percentile"] = s.tail, s.tailP*100
	d.IQR["iter_ms_p50"] = s.cycIQR
	d.IQR["latency_ms_p50"] = s.p50IQR
	d.IQR["latency_ms_p95"] = s.tailIQR
	d.IQR["requests_per_s"] = s.rateIQR
}

// trainTraced is a --trace 1 run of a training workload: the runner, the
// harness's own replay of the lockstep loop with spans, the sequential
// baseline, and single-layer measurements at the workload's shapes. The
// three lockstep state hashes must agree.
func trainTraced(name string, seed uint64, seconds int, smoke bool, d *detail, outDir string) (result, error) {
	spec := trainSpecs[name]
	cfg := spec.config(seed, smoke)
	cfg.Iterations = spec.iterations(float64(seconds)*1000*spec.traceShare, smoke)
	m := metricSet{}

	// The workload's own runner, with the process's costs around it.
	budget := wallBudget(float64(seconds)*spec.traceShare, smoke)
	before := sampleProc()
	par, err := runRunner("par", cfg, budget, spec.host)
	if err != nil {
		return result{}, err
	}
	// The passes that follow must do what the runner did, also when the
	// wall deadline cut it short.
	cfg.Iterations = par.reached
	own := par
	if spec.async {
		before = sampleProc()
		if own, err = runRunner("async", cfg, budget, spec.host); err != nil {
			return result{}, err
		}
	}
	cost := before.until(sampleProc(), own.attempted)

	rec := newRecorder()
	var wire mpi.CommStats
	rp, err := replay(cfg, rec, &wire, spec.host)
	if err != nil {
		return result{}, err
	}
	seq, err := runRunner("seq", cfg, 0, spec.host)
	if err != nil {
		return result{}, err
	}
	d.Hashes["runner"], d.Hashes["replay"], d.Hashes["seq"] = stateHash(par.fulls), stateHash(rp.fulls), stateHash(seq.fulls)
	correct := own.failed+par.failed+rp.failed+seq.failed == 0
	if d.Hashes["runner"] != d.Hashes["seq"] {
		correct = false
		d.note("core.RunParallel and core.RunSequential end on different state hashes")
	}
	if d.Hashes["replay"] != d.Hashes["runner"] {
		correct = false
		d.note("the replay diverged from core.RunParallel: its spans describe another computation")
	}

	by := rec.byName()
	iterate := sortedCopy(by[spanIterate])
	m["core.cell_iterate_ms_p50"] = percentile(iterate, 0.5)
	m["core.cell_iterate_ms_p95"] = percentile(iterate, 0.95)
	m["core.state_ms"] = median(by[spanState])
	m["core.marshal_ms"] = median(by[spanMarshal])
	m["core.unmarshal_ms"] = median(by[spanUnmarshal])
	m["core.set_neighbors_ms"] = median(by[spanSetNeighbors])
	stateBytes := len(par.res.Cells[0].State.Marshal())
	m["core.state_bytes"] = float64(stateBytes)
	shares := replayStats(rec.spans)
	m["core.exchange_share"] = shares.exchange
	m["core.barrier_wait_share"] = shares.barrierWait
	m["core.replay_residual_share"] = (par.sum.cyc - shares.spanSumMsP50) / par.sum.cyc
	m["core.seq_iter_ms_p50"] = seq.sum.cyc
	m["core.par_speedup"] = seq.sum.cyc / own.sum.cyc
	m["core.best_fitness"] = own.best
	exchanges := float64(cfg.Iterations + 1) // one before the first iteration
	m["mpi.bytes_per_iter"] = float64(wire.SentBytes.Load()) / exchanges
	m["mpi.msgs_per_iter"] = float64(wire.SentMessages.Load()) / exchanges

	m["proc.cpu_s"], m["proc.cpu_util"], m["proc.wall_s"] = cost.cpuS, cost.cpuUtil, cost.wallS
	m["proc.alloc_mb_per_op"], m["proc.gc_pause_ms"] = cost.allocMBPerOp, cost.gcPauseMs
	m["proc.trace_overhead_pct"] = 100 * (rp.sum.cyc - par.sum.cyc) / par.sum.cyc

	reps := 9
	if smoke {
		reps = 2
	}
	tensorMetrics(m, cfg, cfg.BatchSize, reps)
	nnForwardMetrics(m, cfg, cfg.BatchSize, reps)
	nnTrainMetrics(m, cfg, cfg.BatchSize, reps)
	datasetMetrics(m, cfg, cfg.BatchSize, reps)
	if err := mpiMetrics(m, cfg.NumCells(), stateBytes+1, reps); err != nil {
		return result{}, err
	}
	if err := checkpointMetrics(m, own.res, outDir); err != nil {
		return result{}, err
	}
	if name == "exchange-lockstep" {
		if err := clusterMetrics(m, cfg, par.res.Elapsed.Seconds()); err != nil {
			return result{}, err
		}
	}
	if err := rec.write(filepath.Join(outDir, "trace-"+name+".json"), name, seed); err != nil {
		return result{}, err
	}
	d.Sizes["iterations"], d.Sizes["cells"] = cfg.Iterations, cfg.NumCells()
	d.Samples["ops"], d.Samples["spans"] = own.sum.n, len(rec.spans)
	d.Extra["iter_ms_p50"], d.Extra["replay_iter_ms_p50"] = own.sum.cyc, rp.sum.cyc
	attempted := own.attempted + rp.attempted + seq.attempted
	failed := own.failed + rp.failed + seq.failed
	if spec.async {
		attempted, failed = attempted+par.attempted, failed+par.failed
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m.render(perLayer)}, nil
}
