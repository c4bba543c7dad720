// Command sweep runs a parameter sweep over grid sizes and execution
// architectures, repeating each cell of the sweep and reporting
// avg±std wall-clock times and the mean best mixture fitness — the
// workload harness behind the scaling analysis. Results print as an
// aligned table and, optionally, machine-readable CSV.
//
// Examples:
//
//	sweep -grids 2,3 -modes seq,par,async -repeats 3 -iterations 2
//	sweep -grids 2 -modes seq,par,async -repeats 1   # one run per architecture
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/report"
	"cellgan/internal/stats"
)

func main() {
	grids := flag.String("grids", "2,3", "comma-separated square grid sides")
	modes := flag.String("modes", "seq,par", "comma-separated modes: seq, par, async")
	repeats := flag.Int("repeats", 3, "repetitions per sweep cell (paper: 10)")
	iterations := flag.Int("iterations", 2, "training iterations per run")
	batches := flag.Int("batches", 2, "mini-batches per iteration")
	batch := flag.Int("batch", 16, "mini-batch size")
	datasetSize := flag.Int("dataset", 200, "training samples")
	hidden := flag.Int("hidden", 32, "hidden width")
	latent := flag.Int("latent", 16, "latent dimension")
	seed := flag.Uint64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	flag.Parse()

	var sides []int
	for _, s := range strings.Split(*grids, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("bad grid side %q", s))
		}
		sides = append(sides, v)
	}
	modeList := strings.Split(*modes, ",")

	t := report.NewTable(
		fmt.Sprintf("Parameter sweep: %d repetition(s) per cell, %d iterations each", *repeats, *iterations),
		"grid", "mode", "avg±std (ms)", "95% CI", "min", "max", "best fitness")
	var csv strings.Builder
	csv.WriteString("grid,mode,mean_ms,std_ms,ci95_ms,min_ms,max_ms,repeats,best_fitness\n")

	for _, side := range sides {
		cfg := config.Default()
		cfg.GridRows, cfg.GridCols = side, side
		cfg.Iterations = *iterations
		cfg.BatchesPerIteration = *batches
		cfg.BatchSize = *batch
		cfg.DatasetSize = *datasetSize
		cfg.NeuronsPerHidden = *hidden
		cfg.InputNeurons = *latent
		cfg.Seed = *seed
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		for _, mode := range modeList {
			mode := strings.TrimSpace(mode)
			fitness := 0.0
			sum, err := stats.Repeat(*repeats, time.Millisecond, func() error {
				res, err := core.Run(mode, cfg, core.RunOptions{})
				if err == nil {
					fitness += res.Best().MixtureFitness / float64(*repeats)
				}
				return err
			})
			if err != nil {
				fatal(fmt.Errorf("grid %d mode %s: %w", side, mode, err))
			}
			t.AddRow(
				fmt.Sprintf("%d×%d", side, side), mode, sum.String(),
				fmt.Sprintf("±%.2f", sum.CI95()),
				fmt.Sprintf("%.1f", sum.Min), fmt.Sprintf("%.1f", sum.Max),
				fmt.Sprintf("%.4f", fitness),
			)
			fmt.Fprintf(&csv, "%dx%d,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%.6f\n",
				side, side, mode, sum.Mean, sum.Std, sum.CI95(), sum.Min, sum.Max, sum.N, fitness)
		}
	}
	fmt.Println(t.String())
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV written to %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
