package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
	// Absolute marks a bound that is a difference, not a share of the
	// parent's median.
	Absolute bool `json:"-"`
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them (see README, "One metric set, two kinds of
// operation"); the bounds come from the A/A calibration in the README.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "iter_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// derived are printed by every untraced run and gated by -compare only; the
// run keeps them in DETAIL.extra. They cannot be end-to-end metrics of
// BENCHMARK.json, whose bounds are shares of at most 0.25 and whose runs the
// driver makes with different seeds: the tail latency of the serving
// workloads follows the host's stalls, not the program (its runs of one
// commit differ by 0.2–0.3 of their median on the reference VM), failed_share
// is 0 on a healthy run, and best_fitness moves with the seed by more than
// any bound. The driver sees failures as attempted/failed and fitness as the
// per-layer metric core.best_fitness.
var derived = []metricDef{
	{Name: "latency_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0, Absolute: true},
	{Name: "best_fitness", Unit: "fitness", Better: "lower", Bound: 0.005, Absolute: true},
}

// perLayer are the single-layer metrics of a traced run, layer = module
// name. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_t2_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.addmatmul_t1_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.im2col_ms", Unit: "ms", Better: "lower"},

	{Name: "nn.gen_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.gen_fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.disc_fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.adam_step_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.alloc_b_per_step", Unit: "B", Better: "lower"},

	{Name: "dataset.batch_ms", Unit: "ms", Better: "lower"},

	{Name: "core.cell_iterate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.cell_iterate_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "core.state_ms", Unit: "ms", Better: "lower"},
	{Name: "core.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unmarshal_ms", Unit: "ms", Better: "lower"},
	{Name: "core.set_neighbors_ms", Unit: "ms", Better: "lower"},
	{Name: "core.state_bytes", Unit: "B", Better: "lower"},
	{Name: "core.exchange_share", Unit: "ratio", Better: "lower"},
	{Name: "core.barrier_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "core.replay_residual_share", Unit: "ratio", Better: "lower"},
	{Name: "core.seq_iter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.best_fitness", Unit: "fitness", Better: "lower"},
	{Name: "core.mixture_sample_ms", Unit: "ms", Better: "lower"},

	{Name: "mpi.allgather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mpi.allgather_tcp_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mpi.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "mpi.msgs_per_iter", Unit: "count", Better: "lower"},

	{Name: "cluster.job_s", Unit: "s", Better: "lower"},
	{Name: "cluster.tcp_job_s", Unit: "s", Better: "lower"},
	{Name: "cluster.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.send_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.heartbeats", Unit: "count", Better: "lower"},

	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.export_mixture_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.engine_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.batch_max", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},

	{Name: "gateway.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.self_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gateway.hedges", Unit: "count", Better: "lower"},
	{Name: "gateway.retries", Unit: "count", Better: "lower"},

	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.wall_s", Unit: "s", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"mlp-compute", "2x2 paper MLP, big batches: training dominates the iteration, so tensor/nn/cell gains must show here and exchange work must not"},
	{"dcgan-compute", "2x2 DCGAN: the same nn/tensor layers through im2col and conv scratch, so a dense-path gain that costs the conv path is visible"},
	{"exchange-lockstep", "3x3 MLP, tiny batches, large genomes: state marshal/unmarshal, allgather and SetNeighbors dominate; a kernel speed-up should barely move it"},
	{"exchange-async", "same config under RunAsync: push and bounded staleness instead of barrier allgather, so a lockstep gain bought from the async path shows"},
	{"serve-small", "2 replicas behind the gateway, n=1 requests: routing, HTTP, queueing and encoding dominate and the forward pass is negligible"},
	{"serve-bulk", "same fleet, n=256 requests: mixture forward passes and response encoding dominate; the bypass workload for gateway-side changes"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, exactly the keys the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is printed on the line before the result: everything else a reader
// or -compare needs to interpret the numbers.
type detail struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Smoke    bool               `json:"smoke,omitempty"`
	Host     hostInfo           `json:"host"`
	Sizes    map[string]int     `json:"sizes"`
	Samples  map[string]int     `json:"samples"`
	IQR      map[string]float64 `json:"iqr"`
	Extra    map[string]float64 `json:"extra"`
	Segments []segment          `json:"segments,omitempty"`
	Hashes   map[string]string  `json:"hashes,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

func newDetail(workload string, seed uint64, seconds, trace int, smoke bool) *detail {
	return &detail{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		Host:  captureHost(),
		Sizes: map[string]int{}, Samples: map[string]int{}, IQR: map[string]float64{},
		Extra: map[string]float64{}, Hashes: map[string]string{},
	}
}

func (d *detail) note(s string) { d.Notes = append(d.Notes, s) }

// metricSet collects the values of one run; render lays them out against a
// list of definitions, reading 0 where the run measured nothing.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
