package core

import (
	"math"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/grid"
	"cellgan/internal/telemetry"
)

func newTestCell(t *testing.T, cfg config.Config, rank int) (*Cell, *telemetry.Profile) {
	t.Helper()
	g, err := grid.New(cfg.GridRows, cfg.GridCols)
	if err != nil {
		t.Fatal(err)
	}
	prof := new(telemetry.Profile)
	c, err := NewCell(cfg, rank, g, prof)
	if err != nil {
		t.Fatal(err)
	}
	return c, prof
}

func TestNewCellValidation(t *testing.T) {
	cfg := tinyConfig()
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	if _, err := NewCell(cfg, -1, g, nil); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := NewCell(cfg, g.Size(), g, nil); err == nil {
		t.Fatal("rank past grid accepted")
	}
	bad := cfg
	bad.BatchSize = 0
	if _, err := NewCell(bad, 0, g, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	// nil profiler allowed.
	if _, err := NewCell(cfg, 0, g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellIterateProducesFiniteStats(t *testing.T) {
	c, prof := newTestCell(t, tinyConfig(), 0)
	stats, err := c.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"gen loss":    stats.GenLoss,
		"disc loss":   stats.DiscLoss,
		"gen fit":     stats.GenFitness,
		"disc fit":    stats.DiscFitness,
		"mixture fit": stats.MixtureFitness,
		"gen lr":      stats.GenLR,
		"disc lr":     stats.DiscLR,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v", name, v)
		}
	}
	if stats.Iteration != 1 || c.Iteration() != 1 {
		t.Fatalf("iteration counter %d/%d", stats.Iteration, c.Iteration())
	}
	// All three local routines must have been profiled.
	for _, r := range []telemetry.Routine{telemetry.RoutineTrain, telemetry.RoutineMutate, telemetry.RoutineUpdateGenomes} {
		if prof.Get(r).Count == 0 {
			t.Fatalf("routine %q not profiled", r)
		}
	}
}

func TestCellTrainingChangesParameters(t *testing.T) {
	c, _ := newTestCell(t, tinyConfig(), 0)
	g0 := c.Generator().ParamsL2()
	d0 := c.Discriminator().ParamsL2()
	if _, err := c.Iterate(); err != nil {
		t.Fatal(err)
	}
	if c.Generator().ParamsL2() == g0 {
		t.Fatal("generator parameters unchanged")
	}
	if c.Discriminator().ParamsL2() == d0 {
		t.Fatal("discriminator parameters unchanged")
	}
}

func TestCellDeterminism(t *testing.T) {
	cfg := tinyConfig()
	a, _ := newTestCell(t, cfg, 0)
	b, _ := newTestCell(t, cfg, 0)
	sa, err := a.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if sa.GenLoss != sb.GenLoss || sa.DiscLoss != sb.DiscLoss || sa.GenLR != sb.GenLR {
		t.Fatalf("same seed diverged: %+v vs %+v", sa, sb)
	}
	if a.Generator().ParamsL2() != b.Generator().ParamsL2() {
		t.Fatal("parameters diverged")
	}
}

func TestCellRanksDiffer(t *testing.T) {
	cfg := tinyConfig()
	a, _ := newTestCell(t, cfg, 0)
	b, _ := newTestCell(t, cfg, 1)
	if a.Generator().ParamsL2() == b.Generator().ParamsL2() {
		t.Fatal("different ranks initialised identically")
	}
}

func TestMutationChangesLearningRate(t *testing.T) {
	cfg := tinyConfig()
	cfg.MutationProbability = 1
	cfg.MutationRate = 0.001
	c, _ := newTestCell(t, cfg, 0)
	lr0, _ := c.LearningRates()
	if _, err := c.Iterate(); err != nil {
		t.Fatal(err)
	}
	lr1, dlr1 := c.LearningRates()
	if lr1 == lr0 {
		t.Fatal("generator lr not mutated at p=1")
	}
	if lr1 <= 0 || dlr1 <= 0 {
		t.Fatal("lr left positive domain")
	}
}

func TestMutationDisabled(t *testing.T) {
	cfg := tinyConfig()
	cfg.MutationProbability = 0
	c, _ := newTestCell(t, cfg, 0)
	lr0, dlr0 := c.LearningRates()
	if _, err := c.Iterate(); err != nil {
		t.Fatal(err)
	}
	lr1, dlr1 := c.LearningRates()
	if lr1 != lr0 || dlr1 != dlr0 {
		t.Fatal("lr mutated at p=0")
	}
}

func TestStateAndSetNeighbors(t *testing.T) {
	cfg := tinyConfig() // 2×2 grid: neighbourhood of 0 is {0,1,2}
	c0, _ := newTestCell(t, cfg, 0)
	c1, _ := newTestCell(t, cfg, 1)
	c2, _ := newTestCell(t, cfg, 2)
	c3, _ := newTestCell(t, cfg, 3)

	states := map[int]*CellState{}
	for _, c := range []*Cell{c0, c1, c2, c3} {
		s, err := c.State()
		if err != nil {
			t.Fatal(err)
		}
		states[c.Rank] = s
	}
	if err := c0.SetNeighbors(states); err != nil {
		t.Fatal(err)
	}
	nb := c0.Neighborhood()
	if len(c0.genNbrs) != len(nb) {
		t.Fatalf("sub-population size %d want %d", len(c0.genNbrs), len(nb))
	}
	// Rank 3 is not in 0's Moore5 neighbourhood on a 2×2 torus.
	if _, ok := c0.genNbrs[3]; ok {
		t.Fatal("non-neighbour state accepted into sub-population")
	}
	// Mixture members must match the neighbourhood.
	if len(c0.Mixture().Ranks) != len(nb) {
		t.Fatalf("mixture over %v, neighbourhood %v", c0.Mixture().Ranks, nb)
	}
	// Own entry must alias the live center, not a stale copy.
	if c0.genNbrs[0] != c0.gen {
		t.Fatal("own sub-population entry is not the live center")
	}
}

func TestSelectionAdoptsBetterNeighbor(t *testing.T) {
	// Train cell 1 alone for several iterations so its generator clearly
	// beats cell 0's fresh one, then expose it to cell 0 via exchange.
	cfg := tinyConfig()
	cfg.Iterations = 6
	c0, _ := newTestCell(t, cfg, 0)
	c1, _ := newTestCell(t, cfg, 1)
	for i := 0; i < 6; i++ {
		if _, err := c1.Iterate(); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := c1.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.SetNeighbors(map[int]*CellState{1: s1}); err != nil {
		t.Fatal(err)
	}
	replaced := false
	for i := 0; i < 4 && !replaced; i++ {
		stats, err := c0.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		replaced = replaced || stats.GenReplaced || stats.DiscReplaced
	}
	// Selection is stochastic, but across 4 iterations against a much
	// fitter neighbour at least one replacement is overwhelmingly likely.
	if !replaced {
		t.Log("warning: no replacement adopted; acceptable but unusual")
	}
}

func TestGenerateSamplesShape(t *testing.T) {
	cfg := tinyConfig()
	c, _ := newTestCell(t, cfg, 0)
	out := c.GenerateSamples(5)
	if out.Rows != 5 || out.Cols != cfg.OutputNeurons {
		t.Fatalf("samples %d×%d", out.Rows, out.Cols)
	}
}

func TestSkipDiscSteps(t *testing.T) {
	cfg := tinyConfig()
	cfg.SkipNDiscSteps = 1000 // never train the discriminator (first step trains: step 0 % N == 0)
	c, _ := newTestCell(t, cfg, 0)
	d0 := c.Discriminator().ParamsL2()
	if _, err := c.Iterate(); err != nil {
		t.Fatal(err)
	}
	// step 0 trains D once; run a second iteration — D must stay frozen.
	d1 := c.Discriminator().ParamsL2()
	if _, err := c.Iterate(); err != nil {
		t.Fatal(err)
	}
	d2 := c.Discriminator().ParamsL2()
	if d1 == d0 {
		t.Fatal("first step should train the discriminator")
	}
	if d2 != d1 {
		t.Fatal("discriminator trained despite skip setting")
	}
}

// A member drawn again is not evaluated again, while the random stream
// still advances by every draw: with one member and four draws, eval runs
// once and the RNG ends where four draws leave it.
func TestTournamentEvaluatesEachCandidateOnce(t *testing.T) {
	cfg := tinyConfig()
	cfg.TournamentSize = 4
	c, _ := newTestCell(t, cfg, 0)
	ref := *c.rng
	calls := 0
	got := c.tournamentSelect(map[int]*Genome{0: c.gen}, func(*Genome) float64 { calls++; return 1 })
	if got != c.gen || calls != 1 {
		t.Fatalf("picked %p after %d evals, want %p after 1", got, calls, c.gen)
	}
	for range cfg.TournamentSize {
		ref.Intn(1)
	}
	if c.rng.Uint64() != ref.Uint64() {
		t.Fatal("the RNG did not advance by one draw per tournament slot")
	}
}
