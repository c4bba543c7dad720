// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV): the parameter settings (Table I), the resource
// allocation (Table II), the execution-time/speedup comparison (Table III),
// the routine profile (Table IV), the grid/neighbourhood illustration
// (Fig 1), the slave state machine (Fig 2), the master/slave flow trace
// (Fig 3) and the routine-time bar chart (Fig 4).
//
// Tables III and IV and Fig 4 are measured: the engine runs sequentially
// and as the paper's master/slave job at a reduced configuration on this
// host, printed beside the paper's published values.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/grid"
	"cellgan/internal/metrics"
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

// paperTableIII is the paper's Table III: 200 iterations on the full
// dataset, single core against an m²+1-process MPI job on Cluster-UY,
// in minutes (distributed as avg±std over ten runs).
var paperTableIII = []struct {
	side                           int
	single, dist, distStd, speedup float64
}{
	{2, 339.6, 39.81, 0.01, 8.53},
	{3, 999.5, 73.24, 2.56, 13.65},
	{4, 1920.0, 126.68, 3.42, 15.17},
}

// paperTableIV is the paper's Table IV: the 4×4 routine profile, single
// core against distributed, in minutes.
var paperTableIV = []struct {
	routine               telemetry.Routine
	single, dist, speedup float64
}{
	{telemetry.RoutineGather, 19.4, 19.4, 1.00},
	{telemetry.RoutineTrain, 264.9, 43.8, 6.05},
	{telemetry.RoutineUpdateGenomes, 199.8, 16.8, 11.87},
	{telemetry.RoutineMutate, 25.6, 17.9, 1.43},
}

// paperOverallIV is Table IV's overall row.
var paperOverallIV = struct{ single, dist, speedup float64 }{509.6, 97.9, 5.21}

// Scaling is one grid side measured both ways: RunSequential in this
// process against the paper's master/slave job (cluster.RunJob, m²+1
// ranks over the in-process transport).
type Scaling struct {
	Side int
	// Seq and Job summarise the wall clock of the repeated runs in ms.
	Seq, Job stats.Summary
	// SeqProf sums the sequential runs' routine times; JobProf sums every
	// job's profile, itself summed over that job's slaves.
	SeqProf, JobProf telemetry.Profile
	// LastJob is the final job's result, whose transitions and event log
	// feed Figs 2 and 3.
	LastJob *cluster.JobResult
}

// Measurement holds Table III, Table IV and Fig 4's measured runs.
type Measurement struct {
	Cfg   config.Config
	Reps  int
	Sides []*Scaling
}

// Measure runs RunSequential and cluster.RunJob reps times each for every
// grid side at cfg's reduced scale — the paper's ten-executions method
// (§IV-B) — recording wall clock and routine profile.
func Measure(cfg config.Config, sides []int, reps int) (*Measurement, error) {
	if len(sides) == 0 {
		return nil, fmt.Errorf("experiments: no grid side to measure")
	}
	m := &Measurement{Cfg: cfg, Reps: reps}
	for _, side := range sides {
		c := cfg.WithGrid(side, side)
		s := &Scaling{Side: side}
		var err error
		s.Seq, err = stats.Repeat(reps, time.Millisecond, func() error {
			_, err := core.RunSequential(c, core.RunOptions{Prof: &s.SeqProf})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %d×%d sequential: %w", side, side, err)
		}
		s.Job, err = stats.Repeat(reps, time.Millisecond, func() error {
			res, err := cluster.RunJob(cluster.MasterOptions{Cfg: c})
			if err != nil {
				return err
			}
			s.JobProf.Merge(res.Profile)
			s.LastJob = res
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %d×%d cluster job: %w", side, side, err)
		}
		m.Sides = append(m.Sides, s)
	}
	return m, nil
}

// setting names the host and the reduced configuration every measured
// artefact was taken on.
func (m *Measurement) setting() string {
	c := m.Cfg
	return fmt.Sprintf("%d CPUs, GOMAXPROCS %d, %s; %d iterations, %d batches of %d per iteration, %d samples, hidden %d, latent %d; %d runs each",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		c.Iterations, c.BatchesPerIteration, c.BatchSize, c.DatasetSize, c.NeuronsPerHidden, c.InputNeurons, m.Reps)
}

// TableIII renders the paper's execution times and speedups beside the
// measured ones: a row per grid side the paper or the measurement has,
// with a dash where one of them has none.
func TableIII(m *Measurement) string {
	t := report.NewTable("Table III — Execution times of GAN training: paper (200 iterations, min) and measured ("+m.setting()+", ms)",
		"grid size", "paper single core", "paper distributed", "paper speedup",
		"sequential", "cluster job", "speedup")
	var sides []int
	for _, p := range paperTableIII {
		sides = append(sides, p.side)
	}
	for _, s := range m.Sides {
		if !slices.Contains(sides, s.Side) {
			sides = append(sides, s.Side)
		}
	}
	slices.Sort(sides)
	for _, side := range sides {
		row := []string{fmt.Sprintf("%d×%d", side, side), "—", "—", "—", "—", "—", "—"}
		for _, p := range paperTableIII {
			if p.side == side {
				row[1], row[2], row[3] = fmt.Sprintf("%.1f", p.single),
					fmt.Sprintf("%.2f±%.2f", p.dist, p.distStd), fmt.Sprintf("%.2f", p.speedup)
			}
		}
		for _, s := range m.Sides {
			if s.Side == side {
				row[4], row[5] = s.Seq.String(), s.Job.String()
				if sp, std, err := stats.Speedup(s.Seq, s.Job); err == nil {
					row[6] = fmt.Sprintf("%.2f±%.2f", sp, std)
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// profileRows returns, for Table IV's routines in the paper's order, the
// largest measured grid's mean sequential time per run and mean job time
// per run and slave, in ms.
func (m *Measurement) profileRows() (s *Scaling, seq, slave []float64) {
	s = m.Sides[len(m.Sides)-1]
	runs, slaves := float64(m.Reps), float64(m.Reps*s.Side*s.Side)
	for _, p := range paperTableIV {
		seq = append(seq, float64(s.SeqProf.Get(p.routine).Total)/float64(time.Millisecond)/runs)
		slave = append(slave, float64(s.JobProf.Get(p.routine).Total)/float64(time.Millisecond)/slaves)
	}
	return s, seq, slave
}

// ratio renders a/b, or a dash when b is zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2f", a/b)
}

// TableIV renders the paper's 4×4 routine profile beside the measured
// profile of the largest measured grid. A job's profile is summed over its
// slaves, so the distributed column is the mean per slave.
func TableIV(m *Measurement) string {
	s, seq, slave := m.profileRows()
	t := report.NewTable(fmt.Sprintf("Table IV — Profiling of the most consuming routines: paper (4×4, min) and measured (%d×%d, ms per run; cluster job as mean per slave; %s)",
		s.Side, s.Side, m.setting()),
		"routine", "paper single core", "paper distributed", "paper speedup",
		"sequential", "cluster per slave", "speedup")
	var seqSum, slaveSum float64
	for i, p := range paperTableIV {
		t.AddRow(p.routine.String(), fmt.Sprintf("%.1f", p.single), fmt.Sprintf("%.1f", p.dist), fmt.Sprintf("%.2f", p.speedup),
			fmt.Sprintf("%.3f", seq[i]), fmt.Sprintf("%.3f", slave[i]), ratio(seq[i], slave[i]))
		seqSum += seq[i]
		slaveSum += slave[i]
	}
	o := paperOverallIV
	t.AddRow("overall", fmt.Sprintf("%.1f", o.single), fmt.Sprintf("%.1f", o.dist), fmt.Sprintf("%.2f", o.speedup),
		fmt.Sprintf("%.3f", seqSum), fmt.Sprintf("%.3f", slaveSum), ratio(seqSum, slaveSum))
	return t.String()
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

// Fig2 renders the slave state machine together with the transition
// trace that a real master/slave job's heartbeat monitoring observed.
func Fig2(job *cluster.JobResult) string {
	var b strings.Builder
	b.WriteString(fig2Diagram)
	b.WriteString("\nObserved transitions (heartbeat monitoring of a real job):\n")
	for _, tr := range job.Transitions {
		fmt.Fprintf(&b, "  slave %d: %s -> %s\n", tr.Slave, tr.From, tr.To)
	}
	return b.String()
}

// Fig3 renders the master/slave processing-and-communication flow as the
// annotated event log of a real job — the trace equivalent of the paper's
// flow diagram.
func Fig3(job *cluster.JobResult) string {
	var b strings.Builder
	b.WriteString("Fig 3 — Flow between the master process and slave processes (event log)\n\n")
	for _, line := range job.Log {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	fmt.Fprintf(&b, "\n%d slaves, %d placements, best cell %d, elapsed %s\n",
		len(job.Reports), len(job.Placements), job.BestCell, job.Elapsed.Round(time.Millisecond))
	return b.String()
}

// Fig4 charts Table IV's measured routine times, sequential against the
// cluster job's mean per slave.
func Fig4(m *Measurement) (string, error) {
	s, seq, slave := m.profileRows()
	ch := report.NewBarChart(fmt.Sprintf("Fig 4 — Execution time comparison for the main routines (measured, %d×%d, ms per run; %s)",
		s.Side, s.Side, m.setting()), " ms", "sequential", "cluster per slave")
	for i, p := range paperTableIV {
		if err := ch.Add(p.routine.String(), seq[i], slave[i]); err != nil {
			return "", err
		}
	}
	return ch.String(), nil
}

// TinyJobConfig is the reduced configuration the measured artefacts run
// the engine at (Tables III and IV, Figs 2–4).
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

// All regenerates every artefact in paper order. Tables III and IV and
// Fig 4 come from one Measure over sides with reps runs each; Figs 2 and
// 3 show the last job of its first side.
func All(sides []int, reps int) (string, error) {
	tableII, err := TableII(sides)
	if err != nil {
		return "", err
	}
	m, err := Measure(TinyJobConfig(), sides, reps)
	if err != nil {
		return "", err
	}
	fig4, err := Fig4(m)
	if err != nil {
		return "", err
	}
	job := m.Sides[0].LastJob
	return strings.Join([]string{TableI(config.Default()), tableII, TableIII(m), TableIV(m),
		Fig1(), Fig2(job), Fig3(job), fig4}, "\n") + "\n", nil
}
