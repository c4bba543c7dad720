// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV): the parameter settings (Table I), the resource
// allocation (Table II), the execution-time/speedup comparison (Table III),
// the routine profile (Table IV), the grid/neighbourhood illustration
// (Fig 1), the slave state machine (Fig 2), the master/slave flow trace
// (Fig 3) and the routine-time bar chart (Fig 4).
//
// Tables III and IV combine the calibrated performance model (the paper's
// testbed is unavailable; see internal/perfmodel) with real reduced-scale
// runs of the actual engine where that is feasible.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/grid"
	"cellgan/internal/metrics"
	"cellgan/internal/perfmodel"
	"cellgan/internal/report"
	"cellgan/internal/serve"
	"cellgan/internal/stats"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

// TableI renders the parameter settings table from a configuration.
func TableI(cfg config.Config) string {
	t := report.NewTable("Table I — Parameters settings of the trained GANs", "parameter", "value")
	for _, row := range cfg.TableI() {
		t.AddRow(row[0], row[1])
	}
	return t.String()
}

// TableII renders the per-grid resource allocation, validated against the
// simulated cluster inventory.
func TableII(sides []int) (string, error) {
	t := report.NewTable("Table II — Resources used on each execution",
		"grid size", "# cores", "memory (MB)", "nodes used")
	inv := cluster.DefaultInventory()
	for _, m := range sides {
		cfg := config.Default().WithGrid(m, m)
		ps, err := cluster.Allocate(inv, cfg.NumTasks(), cfg.MemoryPerTaskMB)
		if err != nil {
			return "", err
		}
		t.AddRow(
			fmt.Sprintf("%d×%d", m, m),
			fmt.Sprint(cfg.NumTasks()),
			fmt.Sprint(cfg.MemoryMB()),
			fmt.Sprint(len(cluster.Summary(ps))),
		)
	}
	return t.String(), nil
}

// TableIII renders the modelled execution times and speedups at paper
// scale (200 iterations, full dataset).
func TableIII(sides []int) (string, error) {
	rows, err := perfmodel.CalibratedScaling().TableIII(sides)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Table III — Execution times of GAN training (calibrated model, minutes)",
		"grid size", "single core (min)", "distributed", "speedup")
	for _, r := range rows {
		t.AddRow(r.Grid,
			fmt.Sprintf("%.1f", r.SingleCore),
			fmt.Sprintf("%.2f±%.2f", r.Distributed, r.DistributedStd),
			fmt.Sprintf("%.2f", r.Speedup),
		)
	}
	return t.String(), nil
}

// MeasuredRow is one reduced-scale measurement of the real engine.
type MeasuredRow struct {
	Grid       string
	Sequential time.Duration
	Parallel   time.Duration
	Speedup    float64
}

// MeasureScaling runs the real engine sequentially and in parallel at
// reduced scale for each grid side and reports wall-clock times. On a
// single-core host the parallel numbers demonstrate correctness rather
// than speedup; with GOMAXPROCS ≥ cells they show real scaling.
func MeasureScaling(base config.Config, sides []int) ([]MeasuredRow, error) {
	out := make([]MeasuredRow, 0, len(sides))
	for _, m := range sides {
		cfg := base.WithGrid(m, m)
		seq, err := core.RunSequential(cfg, core.RunOptions{})
		if err != nil {
			return nil, err
		}
		par, err := core.RunParallel(cfg, core.RunOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, MeasuredRow{
			Grid:       fmt.Sprintf("%d×%d", m, m),
			Sequential: seq.Elapsed,
			Parallel:   par.Elapsed,
			Speedup:    float64(seq.Elapsed) / float64(par.Elapsed),
		})
	}
	return out, nil
}

// MeasuredScalingTable renders MeasureScaling results.
func MeasuredScalingTable(base config.Config, sides []int) (string, error) {
	rows, err := MeasureScaling(base, sides)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Table III (companion) — Measured reduced-scale runs of the real engine",
		"grid size", "sequential", "parallel", "speedup")
	for _, r := range rows {
		t.AddRow(r.Grid, r.Sequential.Round(time.Millisecond).String(),
			r.Parallel.Round(time.Millisecond).String(), fmt.Sprintf("%.2f", r.Speedup))
	}
	return t.String(), nil
}

// TableIV renders the modelled routine profile for the 4×4 grid.
func TableIV() (string, error) {
	rows, err := perfmodel.TableIV(perfmodel.CalibratedRoutines(), 16)
	if err != nil {
		return "", err
	}
	t := report.NewTable("Table IV — Profiling of execution times for the most consuming routines (4×4, minutes)",
		"routine", "single core", "distributed", "acceleration", "speedup")
	for _, r := range rows {
		t.AddRow(r.Routine,
			fmt.Sprintf("%.1f", r.SingleCore),
			fmt.Sprintf("%.1f", r.Distributed),
			fmt.Sprintf("%.1f%%", r.Acceleration),
			fmt.Sprintf("%.2f", r.Speedup),
		)
	}
	return t.String(), nil
}

// MeasuredProfileTable runs the real engine at reduced scale in both modes
// and reports the measured per-routine times — the empirical companion of
// Table IV.
func MeasuredProfileTable(cfg config.Config) (string, error) {
	seqProf := new(telemetry.Profile)
	if _, err := core.RunSequential(cfg, core.RunOptions{Prof: seqProf}); err != nil {
		return "", err
	}
	parProf := new(telemetry.Profile)
	if _, err := core.RunParallel(cfg, core.RunOptions{Prof: parProf}); err != nil {
		return "", err
	}
	t := report.NewTable("Table IV (companion) — Measured routine times at reduced scale",
		"routine", "sequential", "parallel")
	for _, r := range []telemetry.Routine{telemetry.RoutineGather, telemetry.RoutineTrain,
		telemetry.RoutineUpdateGenomes, telemetry.RoutineMutate} {
		t.AddRow(r.String(), seqProf.Get(r).Total.Round(time.Microsecond).String(),
			parProf.Get(r).Total.Round(time.Microsecond).String())
	}
	return t.String(), nil
}

// RepeatedScalingTable runs the paper's repetition methodology at reduced
// scale: `reps` independent executions per (grid, mode), reported as
// avg±std with the 95% confidence interval — the exact presentation of
// Table III's distributed column.
func RepeatedScalingTable(base config.Config, sides []int, reps int) (string, error) {
	t := report.NewTable(
		fmt.Sprintf("Repeated measurements (%d runs each, reduced scale, ms)", reps),
		"grid size", "sequential avg±std", "parallel avg±std", "speedup±std")
	for _, m := range sides {
		cfg := base.WithGrid(m, m)
		seq, err := stats.Repeat(reps, time.Millisecond, func() error {
			_, err := core.RunSequential(cfg, core.RunOptions{})
			return err
		})
		if err != nil {
			return "", err
		}
		par, err := stats.Repeat(reps, time.Millisecond, func() error {
			_, err := core.RunParallel(cfg, core.RunOptions{})
			return err
		})
		if err != nil {
			return "", err
		}
		sp, spStd, err := stats.Speedup(seq, par)
		if err != nil {
			return "", err
		}
		t.AddRow(fmt.Sprintf("%d×%d", m, m), seq.String(), par.String(),
			fmt.Sprintf("%.2f±%.2f", sp, spStd))
	}
	return t.String(), nil
}

// ArchitectureTable compares one reduced-scale run under every execution
// architecture: the sequential baseline, the paper's synchronous
// MPI-style exchange and the asynchronous variant.
func ArchitectureTable(cfg config.Config) (string, error) {
	t := report.NewTable("Execution architectures at reduced scale",
		"architecture", "wall clock", "best mixture fitness")
	for _, arch := range []struct{ name, mode string }{
		{"sequential (1 core)", "seq"},
		{"MPI-style synchronous", "par"},
		{"MPI-style asynchronous", "async"},
	} {
		res, err := core.Run(arch.mode, cfg, core.RunOptions{})
		if err != nil {
			return "", fmt.Errorf("%s: %w", arch.name, err)
		}
		t.AddRow(arch.name, res.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f", res.Best().MixtureFitness))
	}
	return t.String(), nil
}

// QualityTable trains the grid at the given configuration and evaluates
// the returned generator mixture with the classifier-backed metrics,
// bracketed by the real-data and noise baselines. It is the
// generative-quality experiment the paper defers to its references.
func QualityTable(cfg config.Config, sampleN int) (string, error) {
	rng := tensor.NewRNG(cfg.Seed + 999)
	cls, err := metrics.TrainClassifier(dataset.Train(cfg.Seed), metrics.DefaultClassifierOptions(), rng.Split())
	if err != nil {
		return "", err
	}
	eval := func(batch *tensor.Mat) (metrics.Report, error) {
		return metrics.Evaluate(cls, batch, dataset.Test(cfg.Seed), sampleN)
	}

	t := report.NewTable("Generator quality (classifier-backed metrics)",
		"source", "inception score", "Fréchet (diag)", "modes", "TVD")
	add := func(name string, rep metrics.Report) {
		t.AddRow(name,
			fmt.Sprintf("%.3f", rep.InceptionScore),
			fmt.Sprintf("%.2f", rep.Frechet),
			fmt.Sprintf("%d/%d", rep.ModeCoverage, dataset.NumClasses),
			fmt.Sprintf("%.3f", rep.TVD))
	}

	// Real data presented as "generated": the upper bound.
	idx := make([]int, sampleN)
	for i := range idx {
		idx[i] = sampleN + i
	}
	realBatch, _ := dataset.Test(cfg.Seed).Batch(idx)
	realRep, err := eval(realBatch)
	if err != nil {
		return "", err
	}
	add("real data", realRep)

	// The trained coevolutionary mixture.
	res, err := core.RunParallel(cfg, core.RunOptions{})
	if err != nil {
		return "", err
	}
	mix, err := res.MixtureFor(res.BestRank)
	if err != nil {
		return "", err
	}
	genRep, err := eval(mix.Sample(sampleN, cfg.InputNeurons, rng.Split()))
	if err != nil {
		return "", err
	}
	add(fmt.Sprintf("trained mixture (%d iters)", cfg.Iterations), genRep)

	// Uniform noise: the lower bound.
	noise := tensor.New(sampleN, dataset.Pixels)
	tensor.UniformFill(noise, -1, 1, rng.Split())
	noiseRep, err := eval(noise)
	if err != nil {
		return "", err
	}
	add("uniform noise", noiseRep)
	return t.String(), nil
}

// DCGANTable switches the grid to the CNN genome (DCGAN-style conv
// stacks, the heavier workload the Lipizzaner line actually scales) and
// drives it through the full train→exchange→serve stack: parallel
// cellular training with neighbourhood exchange, export of the best
// cell's generator mixture as a deployable artifact, and batched sampling
// of that artifact through the serving engine. The conv layers run on the
// im2col workspace path (DESIGN §11); nn's parity tests pin it
// bit-identical to the direct loops.
func DCGANTable(cfg config.Config, sampleN int) (string, error) {
	cfg.NetworkType = "CNN"
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	if sampleN <= 0 {
		sampleN = 64
	}

	res, err := core.RunParallel(cfg, core.RunOptions{})
	if err != nil {
		return "", err
	}
	art, err := checkpoint.ExportMixture(res, res.BestRank)
	if err != nil {
		return "", err
	}
	reg := serve.NewRegistry(serve.EngineConfig{}, nil)
	defer reg.Close()
	if err := reg.Load("dcgan", art); err != nil {
		return "", err
	}
	eng, err := reg.Engine("dcgan")
	if err != nil {
		return "", err
	}
	served, err := eng.Generate(context.Background(), sampleN)
	if err != nil {
		return "", err
	}
	if served.Rows != sampleN || served.Cols != cfg.OutputNeurons {
		return "", fmt.Errorf("experiments: served batch %d×%d, want %d×%d",
			served.Rows, served.Cols, sampleN, cfg.OutputNeurons)
	}

	t := report.NewTable("DCGAN grid run — train → exchange → serve", "stage", "result")
	t.AddRow("genome", fmt.Sprintf("CNN (DCGAN conv stacks, latent %d → 28×28)", cfg.InputNeurons))
	t.AddRow("grid", fmt.Sprintf("%d×%d, %d iterations × %d batches of %d",
		cfg.GridRows, cfg.GridCols, cfg.Iterations, cfg.BatchesPerIteration, cfg.BatchSize))
	t.AddRow("train+exchange wall clock", res.Elapsed.Round(time.Millisecond).String())
	t.AddRow("best cell", fmt.Sprintf("rank %d, mixture fitness %.4f", res.BestRank, res.Best().MixtureFitness))
	t.AddRow("exported mixture", fmt.Sprintf("%d generators", len(art.Ranks)))
	t.AddRow("served batch", fmt.Sprintf("%d samples × %d pixels, range [%.2f, %.2f]",
		served.Rows, served.Cols, served.Min(), served.Max()))
	return t.String(), nil
}

// Fig1 renders the toroidal grid with two overlapping neighbourhoods, as
// in the paper's Fig 1 (N(1,3) wraps around the torus; N(1,1) is
// interior).
func Fig1() string {
	g := grid.MustNew(4, 4)
	var b strings.Builder
	b.WriteString("Fig 1 — 4×4 toroidal grid with overlapping Moore-5 neighbourhoods\n\n")
	b.WriteString(g.Render(g.Rank(1, 1)))
	b.WriteByte('\n')
	b.WriteString(g.Render(g.Rank(1, 3)))
	b.WriteString("\nOverlap: cells in both neighbourhoods relay updates between them.\n")
	return b.String()
}

// fig2Diagram is the static state machine of Fig 2.
const fig2Diagram = `Fig 2 — States and transitions of slave processes

          run task message              last training iteration
 [inactive] ------------> [processing] ------------------------> [finished]
`

// Fig2 renders the slave state machine together with an observed
// transition trace from a real (tiny) master/slave job.
func Fig2(cfg config.Config) (string, error) {
	res, err := cluster.RunJob(cluster.MasterOptions{Cfg: cfg, HeartbeatInterval: time.Millisecond})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(fig2Diagram)
	b.WriteString("\nObserved transitions (heartbeat monitoring of a real job):\n")
	for _, tr := range res.Transitions {
		fmt.Fprintf(&b, "  slave %d: %s -> %s\n", tr.Slave, tr.From, tr.To)
	}
	return b.String(), nil
}

// Fig3 renders the master/slave processing-and-communication flow as the
// annotated event log of a real job — the trace equivalent of the paper's
// flow diagram.
func Fig3(cfg config.Config) (string, error) {
	res, err := cluster.RunJob(cluster.MasterOptions{Cfg: cfg, HeartbeatInterval: time.Millisecond})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig 3 — Flow between the master process and slave processes (event log)\n\n")
	for _, line := range res.Log {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	fmt.Fprintf(&b, "\n%d slaves, %d placements, best cell %d, elapsed %s\n",
		len(res.Reports), len(res.Placements), res.BestCell, res.Elapsed.Round(time.Millisecond))
	return b.String(), nil
}

// Fig4 renders the single-node vs parallel routine-time comparison as a
// bar chart from the calibrated model.
func Fig4() (string, error) {
	rows, err := perfmodel.TableIV(perfmodel.CalibratedRoutines(), 16)
	if err != nil {
		return "", err
	}
	ch := report.NewBarChart("Fig 4 — Execution time comparison for the main routines (4×4)",
		" min", "single core", "distributed")
	for _, r := range rows {
		if r.Routine == "overall" {
			continue
		}
		if err := ch.Add(r.Routine, r.SingleCore, r.Distributed); err != nil {
			return "", err
		}
	}
	return ch.String(), nil
}

// TinyJobConfig is the reduced configuration used when an experiment needs
// to run the real engine quickly (figures 2 and 3, companion tables).
func TinyJobConfig() config.Config {
	return config.Default().Scaled(2, 8, 100)
}

// DCGANJobConfig is TinyJobConfig on the CNN genome: a reduced-scale
// DCGAN grid that still trains through the full conv workspace path.
func DCGANJobConfig() config.Config {
	cfg := TinyJobConfig()
	cfg.NetworkType = "CNN"
	cfg.BatchSize = 4
	return cfg
}

// All regenerates every artefact in paper order.
func All() (string, error) {
	var b strings.Builder
	b.WriteString(TableI(config.Default()))
	b.WriteByte('\n')
	for _, gen := range []func() (string, error){
		func() (string, error) { return TableII([]int{2, 3, 4}) },
		func() (string, error) { return TableIII([]int{2, 3, 4}) },
		TableIV,
		func() (string, error) { return Fig1(), nil },
		func() (string, error) { return Fig2(TinyJobConfig()) },
		func() (string, error) { return Fig3(TinyJobConfig()) },
		Fig4,
	} {
		s, err := gen()
		if err != nil {
			return "", err
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
