// Command trainer runs cellular coevolutionary GAN training on the
// synthetic digits dataset and reports generator quality.
//
// Modes:
//
//	-mode seq    sequential single-process baseline
//	-mode par    parallel: one goroutine per cell over inproc message passing
//	-mode async  asynchronous cells (no barrier, push/pull exchange)
//	-mode job    full master/slave job with heartbeats and placement
//
// Examples:
//
//	trainer -grid 2 -iterations 5 -batches 10 -dataset 2000 -samples 3
//	trainer -checkpoint run.ckpt -iterations 5      # then later:
//	trainer -resume run.ckpt -iterations 10
//	trainer -idx-images train-images-idx3-ubyte.gz -idx-labels train-labels-idx1-ubyte.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/metrics"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

func main() {
	gridSide := flag.Int("grid", 2, "square grid side (2-4 in the paper)")
	iterations := flag.Int("iterations", 10, "training iterations (paper: 200)")
	batch := flag.Int("batch", 100, "mini-batch size")
	batches := flag.Int("batches", 10, "mini-batches per iteration (0 = full epoch, as the paper)")
	datasetSize := flag.Int("dataset", 5000, "training samples (0 = full 60k split)")
	hidden := flag.Int("hidden", 64, "hidden-layer width (paper: 256)")
	latent := flag.Int("latent", 32, "latent dimension (paper: 64)")
	seed := flag.Uint64("seed", 1, "random seed")
	mode := flag.String("mode", "par", "execution mode: seq, par, async or job")
	samples := flag.Int("samples", 0, "print N generated digits as ASCII art")
	evalQuality := flag.Bool("eval", true, "train a classifier and report inception score etc.")
	verbose := flag.Bool("v", false, "per-iteration progress")
	saveCkpt := flag.String("checkpoint", "", "write a resumable checkpoint here after training (seq/par/async modes)")
	ckptEvery := flag.Int("checkpoint-every", 0, "also write a checkpoint generation (<checkpoint>.N) every N iterations; needs -checkpoint")
	ckptKeep := flag.Int("checkpoint-keep", 0, "checkpoint generations to retain (0 = default)")
	exportMix := flag.String("export-mixture", "", "write the best cell's generator mixture here as a serving artifact (see cmd/serve)")
	resumeCkpt := flag.String("resume", "", "resume from the newest valid checkpoint at this path (generations included); -iterations sets the new target")
	idxImages := flag.String("idx-images", "", "train on a real MNIST IDX image file (plain or .gz)")
	idxLabels := flag.String("idx-labels", "", "label file paired with -idx-images")
	dieting := flag.Bool("dieting", false, "data dieting: each cell trains on a disjoint 1/N data shard")
	mustangs := flag.Bool("mustangs", false, "evolve the GAN loss function (bce/minimax/lsgan pool)")
	saveSamples := flag.String("save-samples", "", "write generated samples as PGM images into this directory")
	netType := flag.String("net", "MLP", "network topology: MLP (paper) or CNN (DCGAN-style, future-work)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	tracePath := flag.String("trace", "", "append one JSONL event per cell iteration to this file")
	flag.Parse()

	cfg := config.Default()
	cfg.GridRows, cfg.GridCols = *gridSide, *gridSide
	cfg.Iterations = *iterations
	cfg.BatchSize = *batch
	cfg.BatchesPerIteration = *batches
	cfg.DatasetSize = *datasetSize
	cfg.NeuronsPerHidden = *hidden
	cfg.InputNeurons = *latent
	cfg.Seed = *seed
	cfg.DataDieting = *dieting
	cfg.NetworkType = strings.ToUpper(*netType)
	if *mustangs {
		cfg = cfg.Mustangs()
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "trainer:", err)
		os.Exit(2)
	}

	prof := new(telemetry.Profile)
	reg := telemetry.NewRegistry()
	prof.Register(reg, "trainer")
	if *debugAddr != "" {
		srv, bound, err := telemetry.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (/metrics, /debug/pprof/)\n", bound)
	}

	// First SIGINT/SIGTERM requests a stop (the run returns normally, so
	// -checkpoint and the summary still happen): mode seq halts at the next
	// iteration boundary, the drivers of par and async within W·D
	// iterations, all cells at the same one. A second signal exits
	// immediately.
	var stopFlag atomic.Bool
	interrupt := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "trainer: interrupted, halting within W·D iterations (W = staleness window, D = grid diameter; ^C again to exit now)")
		stopFlag.Store(true)
		close(interrupt)
		<-sigCh
		os.Exit(130)
	}()

	opts := core.RunOptions{Prof: prof, Telemetry: reg, Stop: stopFlag.Load}
	if *tracePath != "" {
		tr, err := telemetry.OpenTraceFile(*tracePath, cfg.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		defer tr.Close()
		opts.Trace = tr
	}
	if *idxImages != "" || *idxLabels != "" {
		if *idxImages == "" || *idxLabels == "" {
			fmt.Fprintln(os.Stderr, "trainer: -idx-images and -idx-labels must be given together")
			os.Exit(2)
		}
		src, err := dataset.LoadIDX(*idxImages, *idxLabels)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		fmt.Printf("training on %d real MNIST samples from %s\n", src.Len(), *idxImages)
		opts.Data = src
	}
	if *verbose {
		opts.Progress = func(rank int, s core.IterStats) {
			fmt.Printf("cell %d iter %3d: G loss %.4f, D loss %.4f, mixture fitness %.4f, lr %.2e\n",
				rank, s.Iteration, s.GenLoss, s.DiscLoss, s.MixtureFitness, s.GenLR)
		}
	}

	// Periodic checkpointing: every N iterations the run's consistent cut
	// is written as a new generation of the -checkpoint base. Sink
	// failures are warnings — a lost snapshot must not kill training.
	ckptMetrics := checkpoint.NewMetrics(reg)
	sinkCfg := cfg
	if *ckptEvery > 0 {
		if *saveCkpt == "" {
			fmt.Fprintln(os.Stderr, "trainer: -checkpoint-every needs -checkpoint")
			os.Exit(2)
		}
		saver, serr := checkpoint.NewSaver(checkpoint.OS{}, *saveCkpt, *ckptKeep, ckptMetrics)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "trainer:", serr)
			os.Exit(1)
		}
		opts.CheckpointEvery = *ckptEvery
		opts.CheckpointSink = func(iter int, states []*core.FullState) error {
			cp, err := checkpoint.New(sinkCfg, states)
			var gen int
			if err == nil {
				gen, err = saver.Save(cp)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "trainer: checkpoint at iteration %d failed: %v\n", iter, err)
				return nil
			}
			if *verbose {
				fmt.Printf("checkpoint generation %d written at iteration %d\n", gen, iter)
			}
			return nil
		}
	}

	started := time.Now()
	var res *core.Result
	var err error
	switch {
	case *resumeCkpt != "":
		var cp *checkpoint.Checkpoint
		var gen int
		cp, gen, err = checkpoint.LoadLatest(checkpoint.OS{}, *resumeCkpt)
		if err == nil {
			from := *resumeCkpt
			if gen > 0 {
				from = fmt.Sprintf("%s (generation %d)", *resumeCkpt, gen)
			}
			fmt.Printf("resuming from %s (iteration %d) to %d iterations\n",
				from, cp.Iteration(), cfg.Iterations)
			ckptMetrics.ObserveResume()
			sinkCfg = cp.Cfg
			sinkCfg.Iterations = cfg.Iterations
			res, err = checkpoint.Resume(cp, *mode, cfg.Iterations, opts)
			if err == nil {
				cfg = res.Cfg
				cfg.Iterations = res.Cells[0].Last.Iteration
			}
		}
	default:
		res, err = runMode(*mode, cfg, opts, *verbose, reg, interrupt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainer:", err)
		os.Exit(1)
	}
	if res == nil {
		return // job mode prints its own summary
	}
	if stopFlag.Load() {
		fmt.Printf("run stopped early at iteration %d/%d\n",
			res.Cells[0].Last.Iteration, cfg.Iterations)
	}

	if *saveCkpt != "" {
		cp, err := checkpoint.FromResult(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		if err := checkpoint.SaveFile(*saveCkpt, cp); err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s (iteration %d)\n", *saveCkpt, cp.Iteration())
	}

	if *exportMix != "" {
		a, err := checkpoint.ExportMixture(res, res.BestRank)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		if err := checkpoint.SaveMixtureFile(*exportMix, a); err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		fmt.Printf("mixture artifact written to %s (%d generators; serve with: serve -model digits=%s)\n",
			*exportMix, len(a.Ranks), *exportMix)
	}

	fmt.Printf("%s training on %d×%d grid: %d iterations in %s\n",
		*mode, cfg.GridRows, cfg.GridCols, cfg.Iterations, time.Since(started).Round(time.Millisecond))
	fmt.Printf("best cell: %d (mixture fitness %.4f)\n", res.BestRank, res.Best().MixtureFitness)
	fmt.Println()
	fmt.Println(prof.Report())

	mix, err := res.MixtureFor(res.BestRank)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainer:", err)
		os.Exit(1)
	}
	rng := tensor.NewRNG(cfg.Seed + 12345)

	if *evalQuality {
		cls, err := metrics.TrainClassifier(dataset.Train(cfg.Seed), metrics.DefaultClassifierOptions(), rng.Split())
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		gen := mix.Sample(500, cfg.InputNeurons, rng.Split())
		rep, err := metrics.Evaluate(cls, gen, dataset.Test(cfg.Seed), 500)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		fmt.Printf("generator quality: inception score %.3f (max %d), Fréchet %.2f, modes %d/%d, TVD %.3f\n",
			rep.InceptionScore, dataset.NumClasses, rep.Frechet, rep.ModeCoverage, dataset.NumClasses, rep.TVD)
	}

	if *samples > 0 {
		imgs := mix.Sample(*samples, cfg.InputNeurons, rng.Split())
		for i := 0; i < imgs.Rows; i++ {
			fmt.Printf("\ngenerated sample %d:\n%s", i+1, dataset.ASCIIArt(imgs.Row(i), dataset.Side))
		}
	}

	if *saveSamples != "" {
		if err := os.MkdirAll(*saveSamples, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		imgs := mix.Sample(16, cfg.InputNeurons, rng.Split())
		for i := 0; i < imgs.Rows; i++ {
			name := filepath.Join(*saveSamples, fmt.Sprintf("generated_%02d.pgm", i))
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trainer:", err)
				os.Exit(1)
			}
			err = dataset.WritePGM(f, imgs.Row(i), dataset.Side)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "trainer:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("wrote 16 generated samples to %s\n", *saveSamples)
	}
}

// runMode dispatches the non-resume execution paths. Job mode prints its
// own summary and returns (nil, nil).
func runMode(mode string, cfg config.Config, opts core.RunOptions, verbose bool,
	reg *telemetry.Registry, interrupt <-chan struct{}) (*core.Result, error) {
	switch mode {
	case "seq", "par", "async":
		return core.Run(mode, cfg, opts)
	case "job":
		job, err := cluster.RunJob(cluster.MasterOptions{
			Cfg:       cfg,
			Logf:      logfIf(verbose),
			Interrupt: interrupt,
			Metrics:   cluster.NewMetrics(reg),
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("job finished: best cell %d, %d slaves, elapsed %s\n",
			job.BestCell, len(job.Reports), job.Elapsed.Round(time.Millisecond))
		for _, r := range job.Reports {
			if r.Error != "" {
				return nil, fmt.Errorf("cell %d failed: %s", r.CellRank, r.Error)
			}
			fmt.Printf("  cell %d: %d iterations, mixture fitness %.4f on %s\n",
				r.CellRank, r.Iterations, r.MixtureFitness, r.Node)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
}

func logfIf(verbose bool) func(string, ...interface{}) {
	if !verbose {
		return nil
	}
	return func(format string, args ...interface{}) {
		fmt.Printf(format+"\n", args...)
	}
}
