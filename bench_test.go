package cellgan_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/experiments"
	"cellgan/internal/grid"
	"cellgan/internal/mpi"
	"cellgan/internal/nn"
	"cellgan/internal/perfmodel"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

// benchConfig is the reduced-scale configuration used by the real-engine
// benchmarks: the full algorithm (all four routines + exchange) at a size
// that completes in milliseconds per iteration.
func benchConfig(side int) config.Config {
	cfg := config.Default().Scaled(1, 16, 200)
	return cfg.WithGrid(side, side)
}

// ---------------------------------------------------------------------------
// Table I — parameter settings: configuration construction, validation and
// the broadcastable JSON round trip performed by the master at start-up.

func BenchmarkTableI_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		data, err := cfg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := config.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table II — resource allocation on the simulated Cluster-UY inventory for
// the paper's three grid sizes (5, 10 and 17 tasks).

func BenchmarkTableII_Allocation(b *testing.B) {
	inv := cluster.DefaultInventory()
	for _, side := range []int{2, 3, 4} {
		cfg := config.Default().WithGrid(side, side)
		b.Run(cfg.TableI()[9][1], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ps, err := cluster.Allocate(inv, cfg.NumTasks(), cfg.MemoryPerTaskMB)
				if err != nil {
					b.Fatal(err)
				}
				if len(ps) != cfg.NumTasks() {
					b.Fatal("wrong placement count")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table III — execution times and speedup. The real engine runs at reduced
// scale in both modes (per grid size); custom metrics report the modelled
// paper-scale speedup next to the measured wall-clock of each mode.

func BenchmarkTableIII_Sequential(b *testing.B) {
	for _, side := range []int{2, 3, 4} {
		side := side
		b.Run(gridName(side), func(b *testing.B) {
			cfg := benchConfig(side)
			for i := 0; i < b.N; i++ {
				if _, err := core.RunSequential(cfg, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			reportModelSpeedup(b, side)
		})
	}
}

func BenchmarkTableIII_Parallel(b *testing.B) {
	for _, side := range []int{2, 3, 4} {
		side := side
		b.Run(gridName(side), func(b *testing.B) {
			cfg := benchConfig(side)
			for i := 0; i < b.N; i++ {
				if _, err := core.RunParallel(cfg, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			reportModelSpeedup(b, side)
		})
	}
}

func gridName(side int) string {
	return map[int]string{2: "2x2", 3: "3x3", 4: "4x4"}[side]
}

func reportModelSpeedup(b *testing.B, side int) {
	b.Helper()
	s, err := perfmodel.CalibratedScaling().Speedup(side * side)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s, "model-speedup")
}

// ---------------------------------------------------------------------------
// Table IV — routine profile. One full reduced-scale run per iteration,
// reporting each routine's share of the measured total as custom metrics
// (the shape comparison against the paper's 4×4 profile).

func BenchmarkTableIV_Profile(b *testing.B) {
	cfg := benchConfig(4)
	var prof *telemetry.Profile
	for i := 0; i < b.N; i++ {
		prof = new(telemetry.Profile)
		if _, err := core.RunSequential(cfg, core.RunOptions{Prof: prof}); err != nil {
			b.Fatal(err)
		}
	}
	routines := []telemetry.Routine{telemetry.RoutineTrain, telemetry.RoutineUpdateGenomes,
		telemetry.RoutineMutate, telemetry.RoutineGather}
	var total time.Duration
	for _, r := range routines {
		total += prof.Get(r).Total
	}
	if total > 0 {
		for _, r := range routines {
			b.ReportMetric(float64(prof.Get(r).Total)/float64(total)*100, shortRoutine(r)+"-%")
		}
	}
}

func shortRoutine(r telemetry.Routine) string {
	if r == telemetry.RoutineUpdateGenomes {
		return "update"
	}
	return r.String()
}

// ---------------------------------------------------------------------------
// Fig 1 — grid/neighbourhood rendering and the topology computations
// behind it.

func BenchmarkFig1_Neighborhoods(b *testing.B) {
	g := grid.MustNew(4, 4)
	for i := 0; i < b.N; i++ {
		for rank := 0; rank < g.Size(); rank++ {
			if len(g.Neighborhood(rank)) != 5 {
				b.Fatal("wrong neighbourhood")
			}
		}
		_ = g.Render(5)
	}
}

// ---------------------------------------------------------------------------
// Fig 2 — the slave state machine: a complete master/slave job driven
// through inactive → processing → finished under heartbeat monitoring.

func BenchmarkFig2_StateMachine(b *testing.B) {
	cfg := benchConfig(2)
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunJob(cluster.MasterOptions{Cfg: cfg, HeartbeatInterval: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Transitions) == 0 {
			b.Fatal("no transitions observed")
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 3 — the master/slave communication flow: the same job measured end
// to end including placement, config distribution, result gathering and
// reduction.

func BenchmarkFig3_MasterSlaveFlow(b *testing.B) {
	cfg := benchConfig(2)
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunJob(cluster.MasterOptions{Cfg: cfg, HeartbeatInterval: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Log) == 0 {
			b.Fatal("no flow log")
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 4 — the routine-time comparison chart from the calibrated model.

func BenchmarkFig4_RoutineChart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate benchmarks: the computational kernels the training loop is
// made of.

func BenchmarkMatMulGeneratorLayer(b *testing.B) {
	// The paper's widest layer: batch 100 × (256 → 784).
	rng := tensor.NewRNG(1)
	x := tensor.New(100, 256)
	tensor.GaussianFill(x, 0, 1, rng)
	w := tensor.New(256, 784)
	tensor.GaussianFill(w, 0, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(x, w)
	}
	b.SetBytes(int64(8 * 100 * 256 * 784))
}

func BenchmarkGeneratorForward(b *testing.B) {
	cfg := config.Default()
	rng := tensor.NewRNG(1)
	g := core.BuildGenerator(cfg, rng)
	z := tensor.New(cfg.BatchSize, cfg.InputNeurons)
	tensor.GaussianFill(z, 0, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Forward(z)
	}
}

func BenchmarkDiscriminatorForwardBackward(b *testing.B) {
	cfg := config.Default()
	rng := tensor.NewRNG(1)
	d := core.BuildDiscriminator(cfg, rng)
	x := tensor.New(cfg.BatchSize, cfg.OutputNeurons)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.Full(cfg.BatchSize, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ZeroGrads()
		logits := d.Forward(x)
		_, grad := nn.BCEWithLogitsLossInto(new(tensor.Mat), logits, y)
		d.Backward(grad)
	}
}

func BenchmarkCellIterate(b *testing.B) {
	cfg := benchConfig(2)
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cell, err := core.NewCell(cfg, 0, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.Iterate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetRender(b *testing.B) {
	ds := dataset.Train(1)
	buf := make([]float64, dataset.Pixels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Render(i%ds.N, buf)
	}
	b.SetBytes(int64(8 * dataset.Pixels))
}

func BenchmarkCellStateMarshal(b *testing.B) {
	cfg := benchConfig(2)
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cell, err := core.NewCell(cfg, 0, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	state, err := cell.State()
	if err != nil {
		b.Fatal(err)
	}
	payload := state.Marshal()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := state.Marshal()
		if _, err := core.UnmarshalCellState(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllgatherInproc measures the neighbourhood exchange collective
// on the in-process transport with a cell-state-sized payload, for the
// paper's three slave counts.
func BenchmarkAllgatherInproc(b *testing.B) {
	for _, side := range []int{2, 3, 4} {
		side := side
		b.Run(gridName(side), func(b *testing.B) {
			n := side * side
			payload := make([]byte, 64*1024)
			w := mpi.MustWorld(n)
			defer w.Close()
			comms := w.Comms()
			b.SetBytes(int64(len(payload) * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r := 0; r < n; r++ {
					wg.Add(1)
					go func(c *mpi.Comm) {
						defer wg.Done()
						if _, err := c.Allgather(payload); err != nil {
							b.Error(err)
						}
					}(comms[r])
				}
				wg.Wait()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// Each reports the final best mixture fitness as a custom metric so the
// quality impact is visible next to the cost.

func ablationRun(b *testing.B, mutate func(*config.Config)) {
	b.Helper()
	cfg := benchConfig(2)
	cfg.Iterations = 2
	mutate(&cfg)
	var fit float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunSequential(cfg, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fit = res.Best().MixtureFitness
	}
	b.ReportMetric(fit, "best-fitness")
}

func BenchmarkAblationTournament(b *testing.B) {
	b.Run("k=1", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.TournamentSize = 1 }) })
	b.Run("k=2", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.TournamentSize = 2 }) })
	b.Run("k=4", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.TournamentSize = 4 }) })
}

func BenchmarkAblationMutation(b *testing.B) {
	b.Run("off", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.MutationProbability = 0 }) })
	b.Run("paper", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.MutationProbability = 0.5 }) })
	b.Run("always", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.MutationProbability = 1 }) })
}

// BenchmarkAblationExchange compares per-iteration neighbourhood exchange
// (the paper's scheme) against fully isolated cells.
func BenchmarkAblationExchange(b *testing.B) {
	cfg := benchConfig(2)
	cfg.Iterations = 2
	b.Run("exchange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunSequential(cfg, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := grid.MustNew(cfg.GridRows, cfg.GridCols)
			for r := 0; r < g.Size(); r++ {
				cell, err := core.NewCell(cfg, r, g, nil)
				if err != nil {
					b.Fatal(err)
				}
				for it := 0; it < cfg.Iterations; it++ {
					if _, err := cell.Iterate(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkAblationArchitecture compares one full reduced-scale training
// run under the three exchange architectures: the sequential baseline, the
// paper's synchronous MPI-style collective and the asynchronous push/pull
// variant.
func BenchmarkAblationArchitecture(b *testing.B) {
	cfg := benchConfig(2)
	cfg.Iterations = 2
	run := func(b *testing.B, f func() (*core.Result, error)) {
		b.Helper()
		var fit float64
		for i := 0; i < b.N; i++ {
			res, err := f()
			if err != nil {
				b.Fatal(err)
			}
			fit = res.Best().MixtureFitness
		}
		b.ReportMetric(fit, "best-fitness")
	}
	b.Run("sequential", func(b *testing.B) {
		run(b, func() (*core.Result, error) { return core.RunSequential(cfg, core.RunOptions{}) })
	})
	b.Run("mpi-sync", func(b *testing.B) {
		run(b, func() (*core.Result, error) { return core.RunParallel(cfg, core.RunOptions{}) })
	})
	b.Run("mpi-async", func(b *testing.B) {
		run(b, func() (*core.Result, error) { return core.RunAsync(cfg, core.RunOptions{}) })
	})
}

// BenchmarkAblationMustangs compares plain Lipizzaner (BCE only) against
// the Mustangs loss-function evolution (bce/minimax/lsgan pool) and each
// fixed alternative loss.
func BenchmarkAblationMustangs(b *testing.B) {
	b.Run("lipizzaner-bce", func(b *testing.B) { ablationRun(b, func(c *config.Config) {}) })
	b.Run("fixed-lsgan", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.LossSet = "lsgan" }) })
	b.Run("fixed-minimax", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.LossSet = "minimax" }) })
	b.Run("mustangs", func(b *testing.B) { ablationRun(b, func(c *config.Config) { *c = c.Mustangs() }) })
}

// BenchmarkAblationNeighborhood compares the paper's Moore-5 pattern with
// the 9-cell Moore neighbourhood and the centerless ring.
func BenchmarkAblationNeighborhood(b *testing.B) {
	for _, nb := range []string{"moore5", "moore9", "ring4"} {
		nb := nb
		b.Run(nb, func(b *testing.B) {
			ablationRun(b, func(c *config.Config) {
				c.GridRows, c.GridCols = 3, 3
				c.Neighborhood = nb
			})
		})
	}
}

// BenchmarkAblationDataDieting measures the data-dieting variant (each
// cell on a disjoint 1/N shard) against full-data training.
func BenchmarkAblationDataDieting(b *testing.B) {
	b.Run("full-data", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.DataDieting = false }) })
	b.Run("dieting", func(b *testing.B) { ablationRun(b, func(c *config.Config) { c.DataDieting = true }) })
}

// BenchmarkCheckpointRoundTrip measures the cost of capturing, writing
// and re-reading a full training checkpoint.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	cfg := benchConfig(2)
	res, err := core.RunSequential(cfg, core.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cp, err := checkpoint.FromResult(res)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, cp); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := checkpoint.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
}

// BenchmarkAblationTransport compares the allgather over the in-process
// transport against TCP loopback at the 2×2 slave count.
func BenchmarkAblationTransport(b *testing.B) {
	const n = 4
	payload := make([]byte, 64*1024)

	b.Run("inproc", func(b *testing.B) {
		w := mpi.MustWorld(n)
		defer w.Close()
		comms := w.Comms()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAllgather(b, comms, payload)
		}
	})
	b.Run("tcp", func(b *testing.B) {
		nodes := make([]*mpi.TCPNode, n)
		addrs := make([]string, n)
		for r := 0; r < n; r++ {
			node, err := mpi.ListenTCP(r, n, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			nodes[r] = node
			addrs[r] = node.Addr()
			defer node.Close()
		}
		var wg sync.WaitGroup
		for _, node := range nodes {
			wg.Add(1)
			go func(nd *mpi.TCPNode) {
				defer wg.Done()
				if err := nd.Connect(addrs, 10*time.Second); err != nil {
					b.Error(err)
				}
			}(node)
		}
		wg.Wait()
		comms := make([]*mpi.Comm, n)
		for r, nd := range nodes {
			c, err := nd.WorldComm()
			if err != nil {
				b.Fatal(err)
			}
			comms[r] = c
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAllgather(b, comms, payload)
		}
	})
}

func runAllgather(b *testing.B, comms []*mpi.Comm, payload []byte) {
	b.Helper()
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *mpi.Comm) {
			defer wg.Done()
			if _, err := c.Allgather(payload); err != nil {
				b.Error(err)
			}
		}(c)
	}
	wg.Wait()
}
