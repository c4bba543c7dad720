// Command cluster runs one rank of a genuinely distributed training job
// over TCP — the deployment analogue of launching the paper's
// implementation with mpirun. Every process is started with the same
// -addrs list; rank 0 becomes the master and ranks 1..N-1 become slaves
// (one per grid cell, so N = grid² + 1; with -async -join-slots R, the
// last R ranks are elastic reserves that join mid-run).
//
// Example (2×2 grid, 5 processes on one machine):
//
//	for r in 0 1 2 3 4; do
//	  cluster -rank $r -grid 2 -iterations 3 \
//	          -addrs 127.0.0.1:9500,127.0.0.1:9501,127.0.0.1:9502,127.0.0.1:9503,127.0.0.1:9504 &
//	done; wait
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

func main() {
	rank := flag.Int("rank", -1, "this process's rank (0 = master)")
	addrs := flag.String("addrs", "", "comma-separated host:port for every rank, in rank order")
	gridSide := flag.Int("grid", 2, "square grid side")
	iterations := flag.Int("iterations", 10, "training iterations")
	batch := flag.Int("batch", 100, "mini-batch size")
	batches := flag.Int("batches", 10, "mini-batches per iteration (0 = full epoch)")
	datasetSize := flag.Int("dataset", 5000, "training samples (0 = full split)")
	hidden := flag.Int("hidden", 64, "hidden width")
	latent := flag.Int("latent", 32, "latent dimension")
	seed := flag.Uint64("seed", 1, "random seed")
	timeout := flag.Duration("connect-timeout", 30*time.Second, "mesh connection timeout")
	resilient := flag.Bool("resilient", false, "route exchanges through the master so crashed slaves are evicted and their cells reassigned")
	async := flag.Bool("async", false, "asynchronous exchange: slaves push snapshots peer-to-peer under a bounded-staleness window instead of synchronous rounds")
	staleness := flag.Int("staleness", 0, "bounded-staleness window W for -async: a cell never runs more than W iterations ahead of a neighbour's snapshot it trains against; 1 is lockstep, bit-identical to the synchronous modes (0 = config default, 4)")
	joinSlots := flag.Int("join-slots", 0, "extra reserve ranks beyond the grid that may join mid-run (-async only; addrs must cover them)")
	joinDelay := flag.Duration("join-delay", 2*time.Second, "how long a reserve rank idles before asking to join the running job")
	chaosSeed := flag.Uint64("chaos-seed", 0, "enable deterministic fault injection with this schedule seed (0 = off, implies -resilient unless -async)")
	chaosDrop := flag.Float64("chaos-drop", 0.1, "injected message drop probability (with -chaos-seed)")
	chaosDup := flag.Float64("chaos-dup", 0.1, "injected message duplication probability (with -chaos-seed)")
	chaosDelay := flag.Float64("chaos-delay", 0.2, "injected message delay probability (with -chaos-seed)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	ckptPath := flag.String("checkpoint", "", "rank 0: write a final resumable checkpoint here (periodic generations <path>.N with -checkpoint-every); other ranks ignore it")
	ckptEvery := flag.Int("checkpoint-every", 0, "rank 0: also checkpoint every N iterations from the master's gathered state (-resilient or -async)")
	ckptKeep := flag.Int("checkpoint-keep", 0, "rank 0: checkpoint generations to retain (0 = default)")
	resume := flag.Bool("resume", false, "rank 0: resume the whole job from the newest valid checkpoint at -checkpoint (fresh start if none exists)")
	supervise := flag.Bool("supervise", false, "run this rank under a supervisor that relaunches it with exponential backoff after a crash (rank 0 restarts with -resume)")
	maxRestarts := flag.Int("max-restarts", 5, "restarts allowed under -supervise before giving up")
	flag.Parse()

	list := strings.Split(*addrs, ",")
	n := len(list)
	if *addrs == "" || n < 2 {
		fatal(fmt.Errorf("need -addrs with at least 2 entries"))
	}
	if *rank < 0 || *rank >= n {
		fatal(fmt.Errorf("-rank %d out of range for %d addresses", *rank, n))
	}

	cfg := config.Default()
	cfg.GridRows, cfg.GridCols = *gridSide, *gridSide
	cfg.Iterations = *iterations
	cfg.BatchSize = *batch
	cfg.BatchesPerIteration = *batches
	cfg.DatasetSize = *datasetSize
	cfg.NeuronsPerHidden = *hidden
	cfg.InputNeurons = *latent
	cfg.Seed = *seed
	if *staleness > 0 {
		cfg.AsyncStaleness = *staleness
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if !*async && *joinSlots > 0 {
		fatal(fmt.Errorf("-join-slots needs -async"))
	}
	want := cfg.NumTasks()
	if *async {
		want += *joinSlots
	}
	if want != n {
		fatal(fmt.Errorf("grid %d×%d needs %d processes (cells + master + reserves), got %d addresses",
			*gridSide, *gridSide, want, n))
	}

	if *chaosSeed != 0 && !*async {
		// Fault injection without recovery would just be a broken job.
		*resilient = true
	}
	if *ckptEvery > 0 {
		if *ckptPath == "" {
			fatal(fmt.Errorf("-checkpoint-every needs -checkpoint"))
		}
		if !*resilient && !*async {
			fatal(fmt.Errorf("-checkpoint-every needs -resilient or -async (the plain master holds no cell state)"))
		}
	}
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint"))
	}

	if *supervise {
		// Supervisor mode: this process never touches the mesh — it
		// relaunches itself (minus -supervise) with exponential backoff
		// until the child exits cleanly. Rank 0's child always gets
		// -resume, so every restart continues from the newest durable
		// generation instead of starting over.
		if *rank == 0 && *ckptPath == "" {
			fatal(fmt.Errorf("-supervise on rank 0 needs -checkpoint (a restart without one would lose all progress)"))
		}
		child := superviseChildArgs(os.Args[1:], *rank == 0)
		err := cluster.Supervise(cluster.SuperviseOptions{
			MaxRestarts: *maxRestarts,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "cluster: rank %d "+format+"\n", append([]interface{}{*rank}, args...)...)
			},
		}, func(attempt int) error {
			cmd := exec.Command(os.Args[0], child...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			return cmd.Run()
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	// The resilient and async runtimes expect peers to misbehave, so pair
	// them with the hardened transport: connect retries, write deadlines
	// and transparent reconnection on broken pipes.
	tcpOpts := mpi.TCPOptions{}
	if *resilient || *async {
		tcpOpts = mpi.HardenedTCPOptions()
	}
	node, err := mpi.ListenTCPOpts(*rank, n, list[*rank], tcpOpts)
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	fmt.Printf("rank %d listening on %s, connecting mesh...\n", *rank, node.Addr())
	if err := node.Connect(list, *timeout); err != nil {
		fatal(err)
	}
	comm, err := node.WorldComm()
	if err != nil {
		fatal(err)
	}
	var faultStats mpi.FaultStats
	if *chaosSeed != 0 {
		plan := cluster.ChaosPlan(*chaosSeed, *chaosDrop, *chaosDup, *chaosDelay)
		if *async {
			plan = cluster.AsyncChaosPlan(*chaosSeed, *chaosDrop, *chaosDup, *chaosDelay)
		}
		plan.Stats = &faultStats
		comm = mpi.FaultyComm(comm, plan)
		if *rank == 0 {
			fmt.Printf("chaos: injecting faults with seed %d (drop %.2f, dup %.2f, delay %.2f)\n",
				*chaosSeed, *chaosDrop, *chaosDup, *chaosDelay)
		}
	}
	// The stats wrap goes outside the fault layer so the counters see
	// what actually enters the wire, duplicates included.
	var commStats mpi.CommStats
	comm = mpi.InstrumentComm(comm, &commStats)

	reg := telemetry.NewRegistry()
	registerRankMetrics(reg, *rank, &commStats, &faultStats, *chaosSeed != 0)
	if *debugAddr != "" {
		srv, bound, err := telemetry.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("rank %d debug server on http://%s (/metrics, /debug/pprof/)\n", *rank, bound)
	}

	// First SIGINT/SIGTERM: the master aborts the job and still collects
	// results — resilient rounds stop at the next round, plain slaves halt
	// within W·D iterations (window 1, D the grid's influence diameter),
	// all at one boundary. Slaves rely on the master's abort. A second
	// signal exits immediately.
	interrupt := make(chan struct{})
	var interruptOnce sync.Once
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		if *rank == 0 {
			fmt.Fprintln(os.Stderr, "cluster: interrupted, aborting job: cells halt within W·D iterations (^C again to exit now)")
		} else {
			fmt.Fprintln(os.Stderr, "cluster: interrupted, waiting for the master to abort (^C again to exit now)")
		}
		interruptOnce.Do(func() { close(interrupt) })
		<-sigCh
		os.Exit(130)
	}()

	local, err := cluster.SplitLocal(comm)
	if err != nil {
		fatal(err)
	}

	if *rank == 0 {
		ckptMetrics := checkpoint.NewMetrics(reg)
		jobCfg := cfg
		mopts := cluster.MasterOptions{
			Resilient: *resilient,
			Async:     *async,
			JoinSlots: *joinSlots,
			Logf:      func(format string, args ...interface{}) { fmt.Printf(format+"\n", args...) },
			Interrupt: interrupt,
			Metrics:   cluster.NewMetrics(reg),
		}
		if *resume {
			cp, gen, lerr := checkpoint.LoadLatest(checkpoint.OS{}, *ckptPath)
			switch {
			case lerr != nil:
				// A first supervised launch has nothing on disk yet, and a
				// crash during the very first generation write can leave
				// only torn files; both start fresh, loudly.
				fmt.Fprintf(os.Stderr, "cluster: no resumable checkpoint at %s (%v); starting fresh\n", *ckptPath, lerr)
			case cp.Cfg.NumCells() != cfg.NumCells():
				fatal(fmt.Errorf("checkpoint %s is for a %d-cell grid, flags say %d cells",
					*ckptPath, cp.Cfg.NumCells(), cfg.NumCells()))
			default:
				// The stored config wins (it is what the states were
				// trained under); only the iteration target comes from the
				// flags — the same contract as trainer -resume.
				jobCfg = cp.Cfg
				jobCfg.Iterations = cfg.Iterations
				mopts.Resume = cp.States
				ckptMetrics.ObserveResume()
				fmt.Printf("resuming from %s generation %d (iteration %d) to %d iterations\n",
					*ckptPath, gen, cp.Iteration(), jobCfg.Iterations)
			}
		}
		mopts.Cfg = jobCfg
		if *ckptEvery > 0 {
			saver, serr := checkpoint.NewSaver(checkpoint.OS{}, *ckptPath, *ckptKeep, ckptMetrics)
			if serr != nil {
				fatal(serr)
			}
			mopts.CheckpointEvery = *ckptEvery
			// Errors surface through the master's log and the write-error
			// counter; a lost snapshot never kills the job.
			mopts.CheckpointSink = func(iter int, states []*core.FullState) error {
				cp, err := checkpoint.New(jobCfg, states)
				if err != nil {
					return err
				}
				_, err = saver.Save(cp)
				return err
			}
		}
		res, err := cluster.RunMaster(comm, mopts)
		if err != nil {
			fatal(err)
		}
		if *ckptPath != "" {
			states, serr := res.FullStates()
			if serr == nil {
				var cp *checkpoint.Checkpoint
				cp, serr = checkpoint.New(jobCfg, states)
				if serr == nil {
					serr = checkpoint.SaveFile(*ckptPath, cp)
				}
			}
			if serr != nil {
				fmt.Fprintf(os.Stderr, "cluster: final checkpoint failed: %v\n", serr)
			} else {
				fmt.Printf("final checkpoint written to %s\n", *ckptPath)
			}
		}
		fmt.Printf("\njob complete in %s; best cell %d (mixture fitness %.4f)\n",
			res.Elapsed.Round(time.Millisecond), res.BestCell, res.Best().MixtureFitness)
		for _, r := range res.Reports {
			status := "ok"
			if r.Error != "" {
				status = "FAILED: " + r.Error
			}
			fmt.Printf("  cell %d on %s: %d iterations, fitness %.4f [%s]\n",
				r.CellRank, r.Node, r.Iterations, r.MixtureFitness, status)
		}
		if len(res.Profile) > 0 {
			var p telemetry.Profile
			p.Merge(res.Profile)
			fmt.Println()
			fmt.Println(p.Report())
		}
		fmt.Printf("comm: %d messages / %d bytes sent, %d messages / %d bytes received\n",
			commStats.SentMessages.Load(), commStats.SentBytes.Load(),
			commStats.RecvMessages.Load(), commStats.RecvBytes.Load())
		return
	}
	var sopts cluster.SlaveOptions
	if *async && *rank >= cfg.NumTasks() {
		// Reserve rank: idle, then ask the master for a mid-run join.
		joinCh := make(chan struct{})
		delay := *joinDelay
		go func() {
			time.Sleep(delay)
			fmt.Printf("rank %d (reserve) requesting to join the job\n", *rank)
			close(joinCh)
		}()
		sopts.JoinSignal = joinCh
	}
	if err := cluster.RunSlaveOpts(comm, local, sopts); err != nil {
		fatal(err)
	}
	fmt.Printf("rank %d (slave) finished\n", *rank)
}

// registerRankMetrics exposes the rank's communicator traffic (and, under
// chaos, the injected-fault counts) on the debug registry.
func registerRankMetrics(reg *telemetry.Registry, rank int, cs *mpi.CommStats, fs *mpi.FaultStats, chaos bool) {
	reg.GaugeFunc("mpi_rank", "This process's world rank.",
		func() float64 { return float64(rank) })
	reg.GaugeFunc("mpi_sent_messages_total", "Messages sent by this rank.",
		func() float64 { return float64(cs.SentMessages.Load()) })
	reg.GaugeFunc("mpi_sent_bytes_total", "Bytes sent by this rank.",
		func() float64 { return float64(cs.SentBytes.Load()) })
	reg.GaugeFunc("mpi_recv_messages_total", "Messages received by this rank.",
		func() float64 { return float64(cs.RecvMessages.Load()) })
	reg.GaugeFunc("mpi_recv_bytes_total", "Bytes received by this rank.",
		func() float64 { return float64(cs.RecvBytes.Load()) })
	if !chaos {
		return
	}
	reg.GaugeFunc("mpi_fault_drops_total", "Messages dropped by the fault plan.",
		func() float64 { return float64(fs.Drops.Load()) })
	reg.GaugeFunc("mpi_fault_dups_total", "Messages duplicated by the fault plan.",
		func() float64 { return float64(fs.Dups.Load()) })
	reg.GaugeFunc("mpi_fault_delays_total", "Messages delayed by the fault plan.",
		func() float64 { return float64(fs.Delays.Load()) })
	reg.GaugeFunc("mpi_fault_partition_drops_total", "Messages dropped by partition windows.",
		func() float64 { return float64(fs.PartitionDrops.Load()) })
	reg.GaugeFunc("mpi_fault_crashes_total", "Injected rank crashes.",
		func() float64 { return float64(fs.Crashes.Load()) })
}

// superviseChildArgs builds the supervised child's command line: the
// parent's flags minus the supervision ones, plus -resume on rank 0 so a
// restarted master continues from the newest durable generation.
func superviseChildArgs(args []string, master bool) []string {
	out := make([]string, 0, len(args)+1)
	skipNext := false
	for _, a := range args {
		if skipNext {
			skipNext = false
			continue
		}
		name, hasValue := strings.TrimLeft(a, "-"), strings.Contains(a, "=")
		if hasValue {
			name = name[:strings.Index(name, "=")]
		}
		switch name {
		case "supervise", "resume":
			// Boolean flags: a separate value argument is never consumed.
			continue
		case "max-restarts":
			skipNext = !hasValue
			continue
		}
		out = append(out, a)
	}
	if master {
		out = append(out, "-resume")
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cluster:", err)
	os.Exit(1)
}
