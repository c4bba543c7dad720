package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/dataset"
	"cellgan/internal/grid"
	"cellgan/internal/nn"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

// Cell is one grid cell: a center GAN, the sub-populations formed by its
// neighbourhood's centers, the optimizers, and the generator mixture. In
// the parallel implementation one Cell lives inside each slave process's
// execution thread (§III-B).
type Cell struct {
	Cfg  config.Config
	Rank int

	grid *grid.Grid
	src  dataset.Source
	rng  *tensor.RNG
	prof *telemetry.Profile

	gen  *Genome
	disc *Genome

	genOpt  nn.Optimizer
	discOpt nn.Optimizer

	// Neighbour center genomes keyed by grid rank; always includes this
	// cell's own centers under its own rank.
	genNbrs  map[int]*Genome
	discNbrs map[int]*Genome
	// kept holds the genome pair of every neighbour rank ever seen, alive
	// across exchanges: its networks are shells that view the installed
	// snapshot's parameter bytes, re-pointed at each new one.
	kept map[int]genomePair
	// copies holds, per neighbour rank, the buffer SetNeighbors re-encodes
	// that rank's snapshots into; only this cell ever reads it.
	copies map[int][]byte
	// push is the buffer the sequential exchange encodes this cell's
	// center into, in the push layout; its receivers' kept pairs view it
	// until the next exchange re-encodes it.
	push []byte

	mixture *Mixture

	loader    *dataset.Loader
	evalReal  *tensor.Mat
	iteration int
	step      int

	// restoredWeights holds checkpointed mixture weights awaiting the
	// next exchange (see RestoreFull).
	restoredWeights map[int]float64

	// lossSet is the Mustangs loss pool the loss-gene mutation draws
	// from; a single-element set reproduces plain Lipizzaner.
	lossSet []GANLoss

	// ws owns every reusable buffer of the training loop.
	ws *cellWorkspace
}

// genomePair is one cell's two centers.
type genomePair struct{ gen, disc *Genome }

// cellWorkspace aggregates the reusable buffers of one cell's training
// iteration. Distinct nn workspaces keep the aliasing reasoning local:
// each forward→backward pair completes on its own workspace before that
// workspace is reused, and fitness evaluations never clobber a training
// pass in flight. For CNN genomes the nn workspaces additionally carry
// the conv layers' im2col patch buffers and staging matrices, so
// convolutional cells iterate through the same
// zero-steady-state-allocation regime as MLP cells.
//
// Only the training workspaces keep every layer's intermediates, because
// backward reads them. The fitness forwards (evalGen, evalDisc) and the
// mixture's sampling workspace are forward-only over one shared
// nn.ForwardPair: each keeps just its network's output, so a DCGAN cell
// holds the eval batch's im2col patches and activations once, in the pair,
// instead of once per workspace and layer.
type cellWorkspace struct {
	gen, disc         *nn.Workspace // training fwd/bwd (generator, discriminator nets)
	evalGen, evalDisc *nn.Workspace // fitness-evaluation forwards (forward-only)
	zTrain, zEval     tensor.Mat    // latent batches (mini-batch / eval sized)
	train, eval       lossScratch   // loss gradient + target buffers
	sample            *SampleWorkspace
}

func newCellWorkspace() *cellWorkspace {
	pair := new(nn.ForwardPair)
	return &cellWorkspace{
		gen:      nn.NewWorkspace(),
		disc:     nn.NewWorkspace(),
		evalGen:  nn.NewForwardWorkspace(pair),
		evalDisc: nn.NewForwardWorkspace(pair),
		sample:   sampleWorkspaceOn(pair),
	}
}

// IterStats summarises one training iteration of a cell.
type IterStats struct {
	Iteration   int
	GenLoss     float64
	DiscLoss    float64
	GenFitness  float64
	DiscFitness float64
	GenLR       float64
	DiscLR      float64
	// MixtureFitness is the accepted mixture fitness after the ES step.
	MixtureFitness float64
	// GenReplaced/DiscReplaced report whether selection adopted a
	// neighbour's center this iteration.
	GenReplaced  bool
	DiscReplaced bool
}

// evalBatchSize is the fixed batch used for fitness evaluations.
const evalBatchSize = 32

// NewCell creates the cell for the given grid rank, training on the
// default procedural dataset. Determinism: every random stream is derived
// from (cfg.Seed, rank), so a cell behaves identically whether it runs
// sequentially or as a parallel rank. prof receives the cell's routine
// timings and may be shared with other cells; nil records none.
func NewCell(cfg config.Config, rank int, g *grid.Grid, prof *telemetry.Profile) (*Cell, error) {
	return NewCellWithData(cfg, rank, g, prof, nil)
}

// NewCellWithData is NewCell with an explicit data source (e.g. real
// MNIST loaded from IDX files); src == nil selects the procedural
// dataset. With cfg.DataDieting the source is sharded so each cell sees a
// disjoint 1/N slice.
func NewCellWithData(cfg config.Config, rank int, g *grid.Grid, prof *telemetry.Profile, src dataset.Source) (*Cell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= g.Size() {
		return nil, fmt.Errorf("core: rank %d outside grid of %d cells", rank, g.Size())
	}
	if cfg.OutputNeurons != dataset.Pixels {
		return nil, fmt.Errorf("core: output neurons %d must match the dataset's %d pixels",
			cfg.OutputNeurons, dataset.Pixels)
	}
	rng := tensor.NewRNG(cfg.Seed ^ (uint64(rank)+1)*0x9e3779b97f4a7c15)
	if src == nil {
		ds := dataset.Train(cfg.Seed)
		if cfg.DatasetSize > 0 {
			ds = ds.WithSize(cfg.DatasetSize)
		}
		src = ds
	}
	if cfg.DataDieting {
		shard, err := dataset.NewShard(src, rank, g.Size())
		if err != nil {
			return nil, err
		}
		if shard.Len() == 0 {
			return nil, fmt.Errorf("core: data dieting leaves cell %d with no samples", rank)
		}
		src = shard
	}
	var optFor func(lr float64) nn.Optimizer
	switch cfg.Optimizer {
	case "sgd":
		optFor = func(lr float64) nn.Optimizer { return nn.NewSGD(lr, 0.9) }
	default:
		optFor = func(lr float64) nn.Optimizer { return nn.NewAdam(lr) }
	}

	lossSet, err := ParseLossSet(cfg.LossSet)
	if err != nil {
		return nil, err
	}
	c := &Cell{
		Cfg:     cfg,
		Rank:    rank,
		grid:    g,
		src:     src,
		rng:     rng,
		prof:    prof,
		lossSet: lossSet,
		gen:     &Genome{Net: BuildGenerator(cfg, rng), LR: cfg.InitialLearningRate, Loss: lossSet[0]},
		disc:    &Genome{Net: BuildDiscriminator(cfg, rng), LR: cfg.InitialLearningRate, Loss: lossSet[0]},
		ws:      newCellWorkspace(),
	}
	c.genOpt = optFor(c.gen.LR)
	c.discOpt = optFor(c.disc.LR)
	c.loader = dataset.NewLoader(src, cfg.BatchSize, rng.Split())

	// Fixed held-out real batch for fitness evaluation.
	evalIdx := make([]int, evalBatchSize)
	evalRNG := rng.Split()
	for i := range evalIdx {
		evalIdx[i] = evalRNG.Intn(src.Len())
	}
	c.evalReal, _ = dataset.BatchOf(src, evalIdx)

	c.genNbrs = map[int]*Genome{rank: c.gen}
	c.discNbrs = map[int]*Genome{rank: c.disc}
	c.kept, c.copies = map[int]genomePair{}, map[int][]byte{}
	mix, err := NewMixture(map[int]*nn.Network{rank: c.gen.Net})
	if err != nil {
		return nil, err
	}
	c.mixture = mix
	return c, nil
}

// Iteration returns the number of completed training iterations.
func (c *Cell) Iteration() int { return c.iteration }

// Neighborhood returns the grid ranks of this cell's sub-population.
func (c *Cell) Neighborhood() []int { return c.grid.Neighborhood(c.Rank) }

// State snapshots the cell's centers for neighbourhood exchange.
func (c *Cell) State() (*CellState, error) { return UnmarshalCellState(c.AppendState(nil)) }

// AppendState appends the bytes State().Marshal() would produce to dst,
// encoding the parameters straight into it: a caller that sends its state
// every round reuses one buffer and copies nothing.
func (c *Cell) AppendState(dst []byte) []byte { return c.appendState(dst, false) }

// appendState is AppendState, with the parameter blobs in the push layout
// (tensor.AppendAlignedMats) when push is set.
func (c *Cell) appendState(dst []byte, push bool) []byte {
	encode := tensor.AppendMats[float64]
	if push {
		encode = tensor.AppendAlignedMats[float64]
	}
	gen, disc := c.gen.Net.Params(), c.disc.Net.Params()
	dst = slices.Grow(dst, stateHeaderSize+16+tensor.AlignedMatsSize(gen)+tensor.AlignedMatsSize(disc))
	dst = (&CellState{
		Rank: c.Rank, Iteration: c.iteration,
		GenLR: c.gen.LR, DiscLR: c.disc.LR,
		GenFitness: c.gen.Fitness, DiscFitness: c.disc.Fitness,
		GenLoss: c.gen.Loss, DiscLoss: c.disc.Loss,
	}).appendHeader(dst)
	for _, ps := range [...][]*tensor.Mat{gen, disc} {
		at := len(dst) + 8
		dst = encode(binary.LittleEndian.AppendUint64(dst, 0), ps)
		binary.LittleEndian.PutUint64(dst[at-8:], uint64(len(dst)-at))
	}
	return dst
}

// neighbor points the genome pair kept for rank r at s, a snapshot in the
// push layout, and makes that pair rank r's member of the sub-population,
// leaving the mixture for the caller to refresh. The pair's networks view
// s's parameter bytes, which must not change until another snapshot from
// r is installed, and nothing may write them. The pair is created on
// first sight as shells of the cell's own centers, with no parameter
// storage, so an exchange allocates no network. On error the generator
// may view s already.
func (c *Cell) neighbor(r int, s *CellState) error {
	if s.GenLoss >= numGANLosses || s.DiscLoss >= numGANLosses {
		return fmt.Errorf("core: unknown loss gene in state of rank %d", s.Rank)
	}
	p, ok := c.kept[r]
	if !ok {
		p = genomePair{&Genome{Net: c.gen.Net.Shell()}, &Genome{Net: c.disc.Net.Shell()}}
		c.kept[r] = p
	}
	if err := p.gen.Net.ViewParams(s.GenParams); err != nil {
		return fmt.Errorf("core: generator of rank %d: %w", s.Rank, err)
	}
	if err := p.disc.Net.ViewParams(s.DiscParams); err != nil {
		return fmt.Errorf("core: discriminator of rank %d: %w", s.Rank, err)
	}
	p.gen.LR, p.gen.Fitness, p.gen.Loss = s.GenLR, s.GenFitness, s.GenLoss
	p.disc.LR, p.disc.Fitness, p.disc.Loss = s.DiscLR, s.DiscFitness, s.DiscLoss
	c.genNbrs[r], c.discNbrs[r] = p.gen, p.disc
	return nil
}

// SetNeighbors installs the latest center snapshots of the cell's
// neighbourhood (typically the result of the per-iteration exchange).
// Snapshots for ranks outside the neighbourhood are ignored, neighbours
// without a snapshot leave the sub-population, and the cell's own rank
// always refers to its live centers. Each snapshot the cell keeps is
// re-encoded into the push layout, into a buffer private to its rank that
// the kept pair then views, so a warm call allocates no parameters.
func (c *Cell) SetNeighbors(states map[int]*CellState) error {
	c.clearNeighbors()
	for _, r := range c.Neighborhood() {
		if s, ok := states[r]; ok && r != c.Rank {
			s, err := s.aligned(c.copies[r])
			if err == nil {
				c.copies[r] = s.GenParams
				err = c.neighbor(r, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return c.refreshMixture()
}

// clearNeighbors leaves the cell's own centers as its only sub-population.
func (c *Cell) clearNeighbors() {
	clear(c.genNbrs)
	clear(c.discNbrs)
	c.genNbrs[c.Rank], c.discNbrs[c.Rank] = c.gen, c.disc
}

// refreshMixture points the mixture at the current generator
// sub-population.
func (c *Cell) refreshMixture() error {
	gens := make(map[int]*nn.Network, len(c.genNbrs))
	for r, g := range c.genNbrs {
		gens[r] = g.Net
	}
	if err := c.mixture.UpdateMembers(gens); err != nil {
		return err
	}
	c.applyRestoredWeights()
	return nil
}

// sortedRanks returns the keys of a genome map in ascending order, so all
// iteration logic is deterministic.
func sortedRanks(m map[int]*Genome) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// mutateHyperparams applies the paper's Gaussian hyperparameter mutation:
// with probability MutationProbability, perturb each center's learning
// rate by N(0, MutationRate²), clamped to stay positive.
func (c *Cell) mutateHyperparams() {
	defer c.prof.Since(telemetry.RoutineMutate, time.Now())
	mutate := func(g *Genome, opt nn.Optimizer) {
		if c.rng.Float64() < c.Cfg.MutationProbability {
			lr := g.LR + c.rng.NormFloat64()*c.Cfg.MutationRate
			const minLR = 1e-8
			if lr < minLR {
				lr = minLR
			}
			g.LR = lr
			opt.SetLearningRate(lr)
		}
		// Mustangs loss-function mutation: redraw the loss gene from the
		// configured pool.
		if len(c.lossSet) > 1 && c.rng.Float64() < c.Cfg.LossMutationProbability {
			g.Loss = c.lossSet[c.rng.Intn(len(c.lossSet))]
		}
	}
	mutate(c.gen, c.genOpt)
	mutate(c.disc, c.discOpt)
}

// tournamentSelect picks the fittest of TournamentSize random members
// (fitness = adversarial loss measured by eval, lower is better). Members
// are drawn with replacement and every draw is taken, but a member drawn
// again is not evaluated again: eval is deterministic and only a strictly
// lower fitness replaces the best, so a repeat cannot change the choice.
func (c *Cell) tournamentSelect(pop map[int]*Genome, eval func(*Genome) float64) *Genome {
	ranks := sortedRanks(pop)
	drawn := make([]bool, len(ranks))
	j := c.rng.Intn(len(ranks))
	drawn[j] = true
	best := pop[ranks[j]]
	bestFit := eval(best)
	for i := 1; i < c.Cfg.TournamentSize; i++ {
		if j = c.rng.Intn(len(ranks)); drawn[j] {
			continue
		}
		drawn[j] = true
		cand := pop[ranks[j]]
		if f := eval(cand); f < bestFit {
			best, bestFit = cand, f
		}
	}
	return best
}

// discFitnessOn returns the discriminator's BCE loss on a real batch plus
// fakes from the center generator (lower = fitter). fake may alias the
// eval-generator workspace; the forwards here run on the eval-disc
// workspace only.
func (c *Cell) discFitnessOn(d *Genome, real *tensor.Mat, fake *tensor.Mat) float64 {
	s := &c.ws.eval
	logitsReal := d.Net.ForwardWS(c.ws.evalDisc, real)
	ones := s.full(logitsReal.Rows, 1, 1)
	lossReal, _ := nn.BCEWithLogitsLossInto(&s.grad, logitsReal, ones)
	logitsFake := d.Net.ForwardWS(c.ws.evalDisc, fake)
	zeros := s.full(logitsFake.Rows, 1, 0)
	lossFake, _ := nn.BCEWithLogitsLossInto(&s.grad, logitsFake, zeros)
	return (lossReal + lossFake) / 2
}

// genFitnessOn returns the generator's non-saturating loss against a
// discriminator (lower = fitter: fakes fool the discriminator). z must not
// alias the eval workspaces.
func (c *Cell) genFitnessOn(g *Genome, d *Genome, z *tensor.Mat) float64 {
	s := &c.ws.eval
	fake := g.Net.ForwardWS(c.ws.evalGen, z)
	logits := d.Net.ForwardWS(c.ws.evalDisc, fake)
	ones := s.full(logits.Rows, 1, 1)
	loss, _ := nn.BCEWithLogitsLossInto(&s.grad, logits, ones)
	return loss
}

// latentInto draws an n×latentDim standard-normal batch into dst.
func (c *Cell) latentInto(dst *tensor.Mat, n int) *tensor.Mat {
	tensor.GaussianFill(dst.Resize(n, c.Cfg.InputNeurons), 0, 1, c.rng)
	return dst
}

// trainStep performs one adversarial mini-batch update of both centers
// against tournament-selected opponents and returns (genLoss, discLoss).
//
// Buffer discipline: selection forwards run on the eval workspaces, the
// update passes on the train workspaces, and each matrix produced on a
// workspace is consumed before that workspace's next pass — e.g. fakeSel
// (eval-gen) survives the tournament because candidate discriminators
// forward on eval-disc, and fake2 (train-gen) survives the
// discriminator's real-half update because that runs on train-disc.
func (c *Cell) trainStep(real *tensor.Mat) (float64, float64) {
	b := real.Rows
	ws := c.ws

	// --- Generator update against a selected discriminator ---
	// The toughest opponent has the LOWEST discriminator loss; train the
	// generator against the fittest discriminator in the sub-population.
	fakeSel := c.gen.Net.ForwardWS(ws.evalGen, c.latentInto(&ws.zEval, evalBatchSize))
	dOpp := c.tournamentSelect(c.discNbrs, func(g *Genome) float64 {
		return c.discFitnessOn(g, c.evalReal, fakeSel)
	})
	z := c.latentInto(&ws.zTrain, b)
	c.gen.Net.ZeroGrads()
	fake := c.gen.Net.ForwardWS(ws.gen, z)
	logits := dOpp.Net.ForwardWS(ws.disc, fake)
	genLoss, dLogits := generatorLoss(c.gen.Loss, logits, &ws.train)
	dFake := dOpp.Net.InputGradWS(ws.disc, dLogits) // the opponent is only a critic here
	c.gen.Net.BackwardWS(ws.gen, dFake)
	if c.Cfg.GradClip > 0 {
		nn.ClipGrads(c.gen.Net, c.Cfg.GradClip)
	}
	c.genOpt.Step(c.gen.Net)

	// --- Discriminator update against a selected generator ---
	var discLoss float64
	if c.step%c.Cfg.SkipNDiscSteps == 0 {
		zSel2 := c.latentInto(&ws.zEval, evalBatchSize)
		gOpp := c.tournamentSelect(c.genNbrs, func(g *Genome) float64 {
			return c.genFitnessOn(g, c.disc, zSel2)
		})
		z2 := c.latentInto(&ws.zTrain, b)
		fake2 := gOpp.Net.ForwardWS(ws.gen, z2)

		c.disc.Net.ZeroGrads()
		logitsReal := c.disc.Net.ForwardWS(ws.disc, real)
		lossReal, gradReal := discHalfLoss(c.disc.Loss, logitsReal, 1, &ws.train)
		c.disc.Net.BackwardWS(ws.disc, gradReal)
		logitsFake := c.disc.Net.ForwardWS(ws.disc, fake2)
		lossFake, gradFake := discHalfLoss(c.disc.Loss, logitsFake, 0, &ws.train)
		c.disc.Net.BackwardWS(ws.disc, gradFake)
		if c.Cfg.GradClip > 0 {
			nn.ClipGrads(c.disc.Net, c.Cfg.GradClip)
		}
		c.discOpt.Step(c.disc.Net)
		if c.disc.Loss == LossWGAN {
			clipWeights(c.disc.Net, wganClip)
		}
		discLoss = (lossReal + lossFake) / 2
	}
	c.step++
	return genLoss, discLoss
}

// updateGenomes runs the selection/replacement phase: adopt the fittest
// neighbour center when it beats the local one, refresh fitness values,
// and advance the mixture weights by one (1+1)-ES step.
func (c *Cell) updateGenomes() (stats IterStats) {
	defer c.prof.Since(telemetry.RoutineUpdateGenomes, time.Now())

	// Evaluate every generator in the sub-population against the center
	// discriminator on a common latent batch.
	z := c.latentInto(&c.ws.zEval, evalBatchSize)
	bestGenRank := c.Rank
	bestGenFit := c.genFitnessOn(c.gen, c.disc, z)
	for _, r := range sortedRanks(c.genNbrs) {
		if r == c.Rank {
			continue
		}
		if f := c.genFitnessOn(c.genNbrs[r], c.disc, z); f < bestGenFit {
			bestGenFit, bestGenRank = f, r
		}
	}
	if bestGenRank != c.Rank {
		adopted := c.genNbrs[bestGenRank]
		if err := c.gen.Net.CopyParamsFrom(adopted.Net); err == nil {
			c.gen.LR = adopted.LR
			c.gen.Loss = adopted.Loss
			c.genOpt.Reset()
			c.genOpt.SetLearningRate(adopted.LR)
			stats.GenReplaced = true
		}
	}
	c.gen.Fitness = bestGenFit

	// Same for discriminators, judged against the (possibly new) center
	// generator. The latent buffer z is dead by now and safe to reuse.
	fakeEval := c.gen.Net.ForwardWS(c.ws.evalGen, c.latentInto(&c.ws.zEval, evalBatchSize))
	bestDiscRank := c.Rank
	bestDiscFit := c.discFitnessOn(c.disc, c.evalReal, fakeEval)
	for _, r := range sortedRanks(c.discNbrs) {
		if r == c.Rank {
			continue
		}
		if f := c.discFitnessOn(c.discNbrs[r], c.evalReal, fakeEval); f < bestDiscFit {
			bestDiscFit, bestDiscRank = f, r
		}
	}
	if bestDiscRank != c.Rank {
		adopted := c.discNbrs[bestDiscRank]
		if err := c.disc.Net.CopyParamsFrom(adopted.Net); err == nil {
			c.disc.LR = adopted.LR
			c.disc.Loss = adopted.Loss
			c.discOpt.Reset()
			c.discOpt.SetLearningRate(adopted.LR)
			stats.DiscReplaced = true
		}
	}
	c.disc.Fitness = bestDiscFit

	// (1+1)-ES on the mixture weights.
	fit, _ := c.mixture.EvolveWeightsWS(c.ws.sample, c.disc.Net,
		c.Cfg.MixtureMutationScale, evalBatchSize, c.Cfg.InputNeurons, c.rng)
	stats.MixtureFitness = fit
	stats.GenFitness = c.gen.Fitness
	stats.DiscFitness = c.disc.Fitness
	return stats
}

// Iterate runs one full training iteration: hyperparameter mutation, the
// adversarial training epoch, and the genome/mixture update. Neighbour
// exchange is the caller's responsibility (it is a communication step).
func (c *Cell) Iterate() (IterStats, error) {
	c.mutateHyperparams()

	batches := c.loader.BatchesPerEpoch()
	if c.Cfg.BatchesPerIteration > 0 && c.Cfg.BatchesPerIteration < batches {
		batches = c.Cfg.BatchesPerIteration
	}
	var genLoss, discLoss float64
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		real, _ := c.loader.Next()
		gl, dl := c.trainStep(real)
		genLoss += gl
		discLoss += dl
	}
	c.prof.Since(telemetry.RoutineTrain, t0)

	stats := c.updateGenomes()
	c.iteration++
	stats.Iteration = c.iteration
	stats.GenLoss = genLoss / float64(batches)
	stats.DiscLoss = discLoss / float64(batches)
	stats.GenLR = c.gen.LR
	stats.DiscLR = c.disc.LR
	return stats, nil
}

// Mixture returns the cell's current generator mixture.
func (c *Cell) Mixture() *Mixture { return c.mixture }

// Generator returns the center generator network.
func (c *Cell) Generator() *nn.Network { return c.gen.Net }

// Discriminator returns the center discriminator network.
func (c *Cell) Discriminator() *nn.Network { return c.disc.Net }

// GenomeFitness returns the latest (generator, discriminator) fitnesses.
func (c *Cell) GenomeFitness() (float64, float64) { return c.gen.Fitness, c.disc.Fitness }

// LearningRates returns the current (generator, discriminator) learning
// rates.
func (c *Cell) LearningRates() (float64, float64) { return c.gen.LR, c.disc.LR }

// GenerateSamples draws n images from the cell's mixture.
func (c *Cell) GenerateSamples(n int) *tensor.Mat {
	return c.mixture.Sample(n, c.Cfg.InputNeurons, c.rng.Split())
}
