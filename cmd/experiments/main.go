// Command experiments regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	experiments -all                # every artefact in paper order
//	experiments -table 3           # one table (1-4)
//	experiments -fig 2             # one figure (1-4)
//	experiments -measured          # reduced-scale real-engine companions
//	experiments -dcgan 2           # CNN (DCGAN) grid: train → exchange → serve
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cellgan/internal/config"
	"cellgan/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-4)")
	fig := flag.Int("fig", 0, "regenerate one figure (1-4)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	measured := flag.Bool("measured", false, "also run the real engine at reduced scale (companion tables)")
	repeats := flag.Int("repeats", 0, "repeated-run methodology: N independent executions per grid (avg±std)")
	arch := flag.Bool("arch", false, "compare execution architectures (seq / MPI sync / MPI async)")
	quality := flag.Int("quality", 0, "train for N iterations and report generator quality vs real/noise baselines")
	dcgan := flag.Int("dcgan", 0, "train a CNN (DCGAN) grid for N iterations and serve the exported mixture")
	outDir := flag.String("out", "", "also write each artefact to a file in this directory")
	flag.Parse()

	if !*all && *table == 0 && *fig == 0 && !*measured && *repeats == 0 && !*arch && *quality == 0 && *dcgan == 0 {
		*all = true
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	artefact := 0
	emit := func(s string, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(s)
		if *outDir != "" {
			artefact++
			name := filepath.Join(*outDir, fmt.Sprintf("artefact_%02d.txt", artefact))
			if err := os.WriteFile(name, []byte(s+"\n"), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	if *all {
		emit(experiments.All())
	}
	switch *table {
	case 0:
	case 1:
		emit(experiments.TableI(config.Default()), nil)
	case 2:
		emit(experiments.TableII([]int{2, 3, 4}))
	case 3:
		emit(experiments.TableIII([]int{2, 3, 4}))
	case 4:
		emit(experiments.TableIV())
	default:
		fmt.Fprintf(os.Stderr, "experiments: no table %d (the paper has 1-4)\n", *table)
		os.Exit(2)
	}
	switch *fig {
	case 0:
	case 1:
		emit(experiments.Fig1(), nil)
	case 2:
		emit(experiments.Fig2(experiments.TinyJobConfig()))
	case 3:
		emit(experiments.Fig3(experiments.TinyJobConfig()))
	case 4:
		emit(experiments.Fig4())
	default:
		fmt.Fprintf(os.Stderr, "experiments: no figure %d (the paper has 1-4)\n", *fig)
		os.Exit(2)
	}
	if *measured {
		emit(experiments.MeasuredScalingTable(experiments.TinyJobConfig(), []int{2, 3}))
		emit(experiments.MeasuredProfileTable(experiments.TinyJobConfig()))
	}
	if *repeats > 0 {
		emit(experiments.RepeatedScalingTable(experiments.TinyJobConfig(), []int{2, 3}, *repeats))
	}
	if *arch {
		emit(experiments.ArchitectureTable(experiments.TinyJobConfig()))
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
