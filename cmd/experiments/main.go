// Command experiments regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	experiments -all                # every artefact in paper order
//	experiments -table 3           # one table (1-4)
//	experiments -fig 2             # one figure (1-4)
//	experiments -table 3 -repeats 3 # measured columns over 3 runs per mode
//	experiments -dcgan 2           # CNN (DCGAN) grid: train → exchange → serve
//
// Tables III and IV and Fig 4 time RunSequential against the master/slave
// job (cluster.RunJob) at experiments.TinyJobConfig on this host, beside
// the paper's published values.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-4)")
	fig := flag.Int("fig", 0, "regenerate one figure (1-4)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	repeats := flag.Int("repeats", 10, "runs per grid and mode behind the measured Tables III/IV and Fig 4 (avg±std; the paper's 10)")
	quality := flag.Int("quality", 0, "train for N iterations and report generator quality vs real/noise baselines")
	dcgan := flag.Int("dcgan", 0, "train a CNN (DCGAN) grid for N iterations and serve the exported mixture")
	outDir := flag.String("out", "", "also write each artefact to a file in this directory")
	flag.Parse()

	if !*all && *table == 0 && *fig == 0 && *quality == 0 && *dcgan == 0 {
		*all = true
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}
	artefact := 0
	emit := func(s string, err error) {
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
		if *outDir != "" {
			artefact++
			name := filepath.Join(*outDir, fmt.Sprintf("artefact_%02d.txt", artefact))
			if err := os.WriteFile(name, []byte(s+"\n"), 0o644); err != nil {
				fail(err)
			}
		}
	}

	sides := []int{2, 3, 4}
	measure := sync.OnceValues(func() (*experiments.Measurement, error) {
		return experiments.Measure(experiments.TinyJobConfig(), sides, *repeats)
	})
	measured := func() *experiments.Measurement {
		m, err := measure()
		if err != nil {
			fail(err)
		}
		return m
	}
	job := func() *cluster.JobResult {
		res, err := cluster.RunJob(cluster.MasterOptions{Cfg: experiments.TinyJobConfig()})
		if err != nil {
			fail(err)
		}
		return res
	}

	if *all {
		emit(experiments.All(sides, *repeats))
	}
	switch *table {
	case 0:
	case 1:
		emit(experiments.TableI(config.Default()), nil)
	case 2:
		emit(experiments.TableII(sides))
	case 3:
		emit(experiments.TableIII(measured()), nil)
	case 4:
		emit(experiments.TableIV(measured()), nil)
	default:
		fmt.Fprintf(os.Stderr, "experiments: no table %d (the paper has 1-4)\n", *table)
		os.Exit(2)
	}
	switch *fig {
	case 0:
	case 1:
		emit(experiments.Fig1(), nil)
	case 2:
		emit(experiments.Fig2(job()), nil)
	case 3:
		emit(experiments.Fig3(job()), nil)
	case 4:
		emit(experiments.Fig4(measured()))
	default:
		fmt.Fprintf(os.Stderr, "experiments: no figure %d (the paper has 1-4)\n", *fig)
		os.Exit(2)
	}
	if *quality > 0 {
		cfg := config.Default()
		cfg.GridRows, cfg.GridCols = 2, 2
		cfg.Iterations = *quality
		cfg.BatchesPerIteration = 15
		cfg.BatchSize = 50
		cfg.DatasetSize = 2000
		cfg.NeuronsPerHidden = 64
		cfg.InputNeurons = 32
		emit(experiments.QualityTable(cfg, 400))
	}
	if *dcgan > 0 {
		cfg := experiments.DCGANJobConfig()
		cfg.Iterations = *dcgan
		emit(experiments.DCGANTable(cfg, 64))
	}
}
