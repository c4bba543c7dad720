package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/mpi"
	"cellgan/internal/nn"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

// The measurements below time single calls into one layer at the shapes the
// workload uses. They are short by design: a traced run has to fit the same
// wall budget as an untraced one, so each takes a median over few calls.

// medianMs times reps calls of f (after one unrecorded call) and returns the
// median milliseconds per call.
func medianMs(reps int, f func()) float64 {
	f()
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = float64(time.Since(t0)) / 1e6
	}
	return median(times)
}

// dominantShape is the matrix product that carries most of the workload's
// arithmetic, as (M, K)·(K, N): the generator's output layer for an MLP, the
// discriminator's second convolution after im2col for the DCGAN.
func dominantShape(cfg config.Config, batch int) (m, k, n int) {
	if cfg.NetworkType == "CNN" {
		ch := cfg.NeuronsPerHidden / 16
		return batch * 7 * 7, ch * 4 * 4, 2 * ch
	}
	return batch, cfg.NeuronsPerHidden, cfg.OutputNeurons
}

func filled(rows, cols int, rng *tensor.RNG) *tensor.Mat {
	m := tensor.New(rows, cols)
	tensor.GaussianFill(m, 0, 1, rng)
	return m
}

// tensorMetrics measures the three matmul families at the dominant shape
// (operation count 2·M·K·N, computed, not counted) and im2col at the shape
// of the DCGAN discriminator's first convolution.
func tensorMetrics(m metricSet, cfg config.Config, batch int, reps int) {
	rng := tensor.NewRNG(cfg.Seed)
	M, K, N := dominantShape(cfg, batch)
	flop := 2 * float64(M) * float64(K) * float64(N)
	gflops := func(ms float64) float64 { return flop / (ms / 1e3) / 1e9 }

	a, b, dst := filled(M, K, rng), filled(K, N, rng), tensor.New(M, N)
	m["tensor.matmul_gflops"] = gflops(medianMs(reps, func() { tensor.MatMulInto(dst, a, b) }))
	bt := filled(N, K, rng)
	m["tensor.matmul_t2_gflops"] = gflops(medianMs(reps, func() { tensor.MatMulT2Into(dst, a, bt) }))
	g, acc := filled(M, N, rng), tensor.New(K, N)
	m["tensor.addmatmul_t1_gflops"] = gflops(medianMs(reps, func() { tensor.AddMatMulT1Into(acc, a, g) }))

	img, cols := filled(batch, dataset.Pixels, rng), new(tensor.Mat)
	m["tensor.im2col_ms"] = medianMs(reps, func() {
		tensor.Im2ColInto(cols, img, 1, dataset.Side, dataset.Side, 4, 2, 1, dataset.Side/2, dataset.Side/2)
	})
}

// nnForwardMetrics measures the generator's forward pass, the one nn path
// serving runs, on the workspace path.
func nnForwardMetrics(m metricSet, cfg config.Config, batch int, reps int) {
	rng := tensor.NewRNG(cfg.Seed)
	gen, ws, z := core.BuildGenerator(cfg, rng), nn.NewWorkspace(), filled(batch, cfg.InputNeurons, rng)
	m["nn.gen_fwd_ms"] = medianMs(reps, func() { gen.ForwardWS(ws, z) })
}

// nnTrainMetrics measures the passes of a training step on the workload's
// own networks, on the workspace path.
func nnTrainMetrics(m metricSet, cfg config.Config, batch int, reps int) {
	rng := tensor.NewRNG(cfg.Seed)
	gen, disc := core.BuildGenerator(cfg, rng), core.BuildDiscriminator(cfg, rng)
	genWS, discWS := nn.NewWorkspace(), nn.NewWorkspace()
	z, real := filled(batch, cfg.InputNeurons, rng), filled(batch, dataset.Pixels, rng)
	dOut := filled(batch, dataset.Pixels, rng)
	ones, grad := tensor.New(batch, 1), new(tensor.Mat)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	adam := nn.NewAdam(cfg.InitialLearningRate)

	m["nn.gen_fwdbwd_ms"] = medianMs(reps, func() {
		gen.ZeroGrads()
		gen.ForwardWS(genWS, z)
		gen.BackwardWS(genWS, dOut)
	})
	var logits *tensor.Mat
	step := func() {
		disc.ZeroGrads()
		logits = disc.ForwardWS(discWS, real)
		_, g := nn.BCEWithLogitsLossInto(grad, logits, ones)
		disc.BackwardWS(discWS, g)
	}
	m["nn.disc_fwdbwd_ms"] = medianMs(reps, step)
	m["nn.loss_ms"] = medianMs(reps, func() { nn.BCEWithLogitsLossInto(grad, logits, ones) })
	m["nn.adam_step_ms"] = medianMs(reps, func() { adam.Step(disc) })

	// Bytes allocated by one steady-state discriminator step.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		step()
		adam.Step(disc)
	}
	runtime.ReadMemStats(&after)
	m["nn.alloc_b_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// datasetMetrics measures the time a training step waits for one batch.
func datasetMetrics(m metricSet, cfg config.Config, batch int, reps int) {
	src := dataset.Train(cfg.Seed).WithSize(trainDataset)
	loader := dataset.NewLoader(src, batch, tensor.NewRNG(cfg.Seed))
	m["dataset.batch_ms"] = medianMs(reps, func() { loader.Next() })
}

// allgatherMs runs rounds allgathers of size-byte payloads on comms, one
// goroutine per rank as the runners do, and returns the median round time
// seen by rank 0.
func allgatherMs(comms []*mpi.Comm, size, rounds int) (float64, error) {
	payload := make([]byte, size)
	times := make([]float64, 0, rounds)
	errs := make(chan error, len(comms))
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *mpi.Comm) {
			defer wg.Done()
			for i := 0; i <= rounds; i++ { // round 0 is unrecorded
				if err := c.Barrier(); err != nil {
					errs <- err
					return
				}
				t0 := time.Now()
				if _, err := c.Allgather(payload); err != nil {
					errs <- err
					return
				}
				if c.Rank() == 0 && i > 0 {
					times = append(times, float64(time.Since(t0))/1e6)
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return median(times), nil
}

// tcpMesh builds an n-rank loopback mesh and returns each rank's world
// communicator with a function that closes the mesh.
func tcpMesh(n int) ([]*mpi.Comm, func(), error) {
	nodes := make([]*mpi.TCPNode, n)
	addrs := make([]string, n)
	closeAll := func() {
		for _, node := range nodes {
			if node != nil {
				node.Close()
			}
		}
	}
	for r := range nodes {
		node, err := mpi.ListenTCP(r, n, "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nodes[r], addrs[r] = node, node.Addr()
	}
	comms := make([]*mpi.Comm, n)
	errs := make(chan error, n)
	for r := range nodes {
		go func(r int) {
			if err := nodes[r].Connect(addrs, 10*time.Second); err != nil {
				errs <- err
				return
			}
			var err error
			comms[r], err = nodes[r].WorldComm()
			errs <- err
		}(r)
	}
	for range nodes {
		if err := <-errs; err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return comms, closeAll, nil
}

// mpiMetrics measures the allgather at the workload's rank count and state
// size over both transports.
func mpiMetrics(m metricSet, ranks, stateBytes, rounds int) error {
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		return err
	}
	m["mpi.allgather_ms_p50"], err = allgatherMs(world.Comms(), stateBytes, rounds)
	world.Close()
	if err != nil {
		return err
	}
	comms, closeMesh, err := tcpMesh(ranks)
	if err != nil {
		return err
	}
	defer closeMesh()
	m["mpi.allgather_tcp_ms_p50"], err = allgatherMs(comms, stateBytes, rounds)
	return err
}

// checkpointMetrics measures how long training would stall to save the
// final states of the workload, and how long a resume takes to load them.
func checkpointMetrics(m metricSet, res *core.Result, outDir string) error {
	cp, err := checkpoint.FromResult(res)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("ckpt-%d.bin", os.Getpid()))
	defer os.Remove(path)
	t0 := time.Now()
	if err := checkpoint.SaveFile(path, cp); err != nil {
		return err
	}
	m["checkpoint.save_ms"] = float64(time.Since(t0)) / 1e6
	if fi, err := os.Stat(path); err == nil {
		m["checkpoint.bytes"] = float64(fi.Size())
	}
	t0 = time.Now()
	if _, err := checkpoint.LoadFile(path); err != nil {
		return err
	}
	m["checkpoint.load_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if _, err := checkpoint.ExportMixture(res, res.BestRank); err != nil {
		return err
	}
	m["checkpoint.export_mixture_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}

// clusterJob runs one whole master/slave job of cfg over the given world
// communicators (rank 0 is the master) and returns its wall time.
func clusterJob(comms []*mpi.Comm, opts cluster.MasterOptions) (float64, error) {
	errs := make(chan error, len(comms))
	t0 := time.Now()
	for _, c := range comms {
		go func(c *mpi.Comm) {
			errs <- func() error {
				local, err := cluster.SplitLocal(c)
				if err != nil {
					return err
				}
				if c.Rank() != 0 {
					return cluster.RunSlave(c, local)
				}
				res, err := cluster.RunMaster(c, opts)
				if err != nil {
					return err
				}
				for _, r := range res.Reports {
					if r.Error != "" || r.Iterations != opts.Cfg.Iterations {
						return fmt.Errorf("cluster: cell %d ended at iteration %d: %s", r.CellRank, r.Iterations, r.Error)
					}
				}
				return nil
			}()
		}(c)
	}
	var first error
	for range comms {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(t0).Seconds(), first
}

// clusterMetrics times whole jobs of cfg over the in-process transport and
// over a loopback TCP mesh, against the core.RunParallel time of the same
// config. The asynchronous cluster job is not timed here: on the reference
// host it takes 36–57 s whatever the iteration count (README, "Not measured
// from outside"), which no run has room for.
func clusterMetrics(m metricSet, cfg config.Config, parS float64) error {
	met := cluster.NewMetrics(telemetry.NewRegistry())
	opts := cluster.MasterOptions{Cfg: cfg, Metrics: met}
	n := cfg.NumTasks()

	world, err := mpi.NewWorld(n)
	if err != nil {
		return err
	}
	m["cluster.job_s"], err = clusterJob(world.Comms(), opts)
	world.Close()
	if err != nil {
		return err
	}
	comms, closeMesh, err := tcpMesh(n)
	if err != nil {
		return err
	}
	m["cluster.tcp_job_s"], err = clusterJob(comms, opts)
	closeMesh()
	if err != nil {
		return err
	}
	if job := m["cluster.job_s"]; job > 0 {
		m["cluster.overhead_share"] = (job - parS) / job
	}
	m["cluster.send_retries"] = float64(met.SendRetries.Value())
	m["cluster.heartbeats"] = float64(met.Heartbeats.Value())
	return nil
}
