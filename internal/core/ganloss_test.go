package core

import (
	"math"
	"testing"

	"cellgan/internal/grid"
	"cellgan/internal/tensor"
)

func TestGANLossStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want GANLoss
	}{
		{"bce", LossBCE}, {"heuristic", LossBCE},
		{"minimax", LossMinimax},
		{"lsgan", LossLSGAN}, {"least-squares", LossLSGAN},
	} {
		got, err := ParseGANLoss(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseGANLoss(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseGANLoss("hinge"); err == nil {
		t.Fatal("unknown loss accepted")
	}
	if got, err := ParseGANLoss("wasserstein"); err != nil || got != LossWGAN {
		t.Fatalf("wasserstein alias: %v %v", got, err)
	}
	if LossWGAN.String() != "wgan" {
		t.Fatal("wgan String")
	}
	if LossBCE.String() != "bce" || LossMinimax.String() != "minimax" || LossLSGAN.String() != "lsgan" {
		t.Fatal("String names wrong")
	}
	if GANLoss(99).String() == "" {
		t.Fatal("unknown String empty")
	}
}

func TestParseLossSet(t *testing.T) {
	set, err := ParseLossSet("")
	if err != nil || len(set) != 1 || set[0] != LossBCE {
		t.Fatalf("empty set: %v %v", set, err)
	}
	set, err = ParseLossSet("bce, lsgan,minimax,bce")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("dedup failed: %v", set)
	}
	if _, err := ParseLossSet("bce,unknown"); err == nil {
		t.Fatal("bad entry accepted")
	}
}

// numericGenGrad checks ∂L/∂logits for a generator loss by central
// differences.
func checkGenLossGrad(t *testing.T, kind GANLoss) {
	t.Helper()
	rng := tensor.NewRNG(uint64(kind) + 1)
	logits := tensor.New(4, 1)
	tensor.GaussianFill(logits, 0, 2, rng)
	loss, grad := generatorLoss(kind, logits, new(lossScratch))
	if math.IsNaN(loss) {
		t.Fatalf("%v: NaN loss", kind)
	}
	eps := 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := generatorLoss(kind, logits, new(lossScratch))
		logits.Data[i] = orig - eps
		lm, _ := generatorLoss(kind, logits, new(lossScratch))
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(grad.Data[i]-num) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("%v: grad[%d] = %v, numeric %v", kind, i, grad.Data[i], num)
		}
	}
}

func TestGeneratorLossGradients(t *testing.T) {
	for _, kind := range []GANLoss{LossBCE, LossMinimax, LossLSGAN, LossWGAN} {
		checkGenLossGrad(t, kind)
	}
}

func TestWGANDiscLossGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	logits := tensor.New(3, 1)
	tensor.GaussianFill(logits, 0, 2, rng)
	for _, target := range []float64{0, 1} {
		_, grad := discHalfLoss(LossWGAN, logits, target, new(lossScratch))
		eps := 1e-6
		for i := range logits.Data {
			orig := logits.Data[i]
			logits.Data[i] = orig + eps
			lp, _ := discHalfLoss(LossWGAN, logits, target, new(lossScratch))
			logits.Data[i] = orig - eps
			lm, _ := discHalfLoss(LossWGAN, logits, target, new(lossScratch))
			logits.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(grad.Data[i]-num) > 1e-6*(1+math.Abs(num)) {
				t.Fatalf("wgan target %v grad[%d] = %v numeric %v", target, i, grad.Data[i], num)
			}
		}
	}
}

func TestWGANCellClipsCriticWeights(t *testing.T) {
	cfg := tinyConfig()
	cfg.LossSet = "wgan"
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cell, err := NewCell(cfg, 0, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cell.Iterate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range cell.Discriminator().Params() {
		if p.Max() > wganClip+1e-12 || p.Min() < -wganClip-1e-12 {
			t.Fatalf("critic weights escaped the clip: [%v, %v]", p.Min(), p.Max())
		}
	}
	// The generator must remain unclipped.
	unclipped := false
	for _, p := range cell.Generator().Params() {
		if p.Max() > wganClip || p.Min() < -wganClip {
			unclipped = true
		}
	}
	if !unclipped {
		t.Fatal("generator weights look clipped too")
	}
}

func TestClipWeights(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := BuildDiscriminator(tinyConfig(), rng)
	clipWeights(net, 0.05)
	for _, p := range net.Params() {
		if p.Max() > 0.05 || p.Min() < -0.05 {
			t.Fatal("clip failed")
		}
	}
}

func TestDiscriminatorLossGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, kind := range []GANLoss{LossBCE, LossLSGAN} {
		logits := tensor.New(3, 1)
		tensor.GaussianFill(logits, 0, 2, rng)
		for _, target := range []float64{0, 1} {
			_, grad := discHalfLoss(kind, logits, target, new(lossScratch))
			eps := 1e-6
			for i := range logits.Data {
				orig := logits.Data[i]
				logits.Data[i] = orig + eps
				lp, _ := discHalfLoss(kind, logits, target, new(lossScratch))
				logits.Data[i] = orig - eps
				lm, _ := discHalfLoss(kind, logits, target, new(lossScratch))
				logits.Data[i] = orig
				num := (lp - lm) / (2 * eps)
				if math.Abs(grad.Data[i]-num) > 1e-5*(1+math.Abs(num)) {
					t.Fatalf("%v target %v: grad[%d] = %v numeric %v", kind, target, i, grad.Data[i], num)
				}
			}
		}
	}
}

func TestGeneratorLossDirections(t *testing.T) {
	// For every loss, improving logits (discriminator more fooled, z↑)
	// must decrease the generator loss.
	low := tensor.Full(8, 1, -2)
	high := tensor.Full(8, 1, 2)
	for _, kind := range []GANLoss{LossBCE, LossMinimax, LossLSGAN} {
		lLow, _ := generatorLoss(kind, low, new(lossScratch))
		lHigh, _ := generatorLoss(kind, high, new(lossScratch))
		if lHigh >= lLow {
			t.Fatalf("%v: loss did not decrease as D is fooled (%v -> %v)", kind, lLow, lHigh)
		}
	}
}

func TestDiscriminatorLossCombined(t *testing.T) {
	rng := tensor.NewRNG(9)
	real := tensor.New(4, 1)
	fake := tensor.New(4, 1)
	tensor.GaussianFill(real, 1, 1, rng)
	tensor.GaussianFill(fake, -1, 1, rng)
	for _, kind := range []GANLoss{LossBCE, LossMinimax, LossLSGAN} {
		lr, gr := discHalfLoss(kind, real, 1, new(lossScratch))
		lf, gf := discHalfLoss(kind, fake, 0, new(lossScratch))
		if math.IsNaN(lr+lf) || gr.Rows != 4 || gf.Rows != 4 {
			t.Fatalf("%v: bad combined loss", kind)
		}
	}
}

func TestMinimaxStableAtExtremes(t *testing.T) {
	logits := tensor.FromSlice(1, 2, []float64{500, -500})
	loss, grad := generatorLoss(LossMinimax, logits, new(lossScratch))
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("minimax loss %v at extreme logits", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("minimax grad NaN")
		}
	}
}

func TestMustangsCellUsesLossPool(t *testing.T) {
	cfg := tinyConfig().Mustangs()
	cfg.Iterations = 1
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cell, err := NewCell(cfg, 0, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.lossSet) != 3 {
		t.Fatalf("loss pool %v", cell.lossSet)
	}
	// Over many mutation rounds both genes should leave the initial loss
	// at least once.
	changed := false
	for i := 0; i < 50 && !changed; i++ {
		cell.mutateHyperparams()
		changed = cell.gen.Loss != LossBCE || cell.disc.Loss != LossBCE
	}
	if !changed {
		t.Fatal("loss gene never mutated at p=0.5 over 50 rounds")
	}
}

func TestMustangsTrainingEndToEnd(t *testing.T) {
	cfg := tinyConfig().Mustangs()
	cfg.Iterations = 3
	res, err := RunSequential(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if math.IsNaN(c.MixtureFitness) {
			t.Fatalf("cell %d NaN fitness under Mustangs", c.Rank)
		}
		if c.State.GenLoss >= numGANLosses || c.State.DiscLoss >= numGANLosses {
			t.Fatalf("cell %d invalid loss gene in state", c.Rank)
		}
	}
}

func TestLossGeneSurvivesStateRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	rng := tensor.NewRNG(3)
	gen := BuildGenerator(cfg, rng)
	disc := BuildDiscriminator(cfg, rng)
	gp, _ := gen.EncodeParams()
	dp, _ := disc.EncodeParams()
	s := &CellState{GenLoss: LossLSGAN, DiscLoss: LossMinimax, GenParams: gp, DiscParams: dp}
	got, err := UnmarshalCellState(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.GenLoss != LossLSGAN || got.DiscLoss != LossMinimax {
		t.Fatalf("loss genes %v/%v", got.GenLoss, got.DiscLoss)
	}
	pushed, err := got.aligned(nil) // the push layout neighbor installs
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := newTestCell(t, cfg, 0)
	if err := c0.neighbor(1, pushed); err != nil {
		t.Fatal(err)
	}
	if c0.genNbrs[1].Loss != LossLSGAN || c0.discNbrs[1].Loss != LossMinimax {
		t.Fatal("genomes lost their loss genes")
	}
	bad := *pushed
	bad.GenLoss = GANLoss(42)
	if err := c0.neighbor(1, &bad); err == nil {
		t.Fatal("invalid loss gene accepted")
	}
}

func TestLSGANCellTrains(t *testing.T) {
	cfg := tinyConfig()
	cfg.LossSet = "lsgan"
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cell, err := NewCell(cfg, 0, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cell.gen.Loss != LossLSGAN {
		t.Fatalf("initial loss %v", cell.gen.Loss)
	}
	stats, err := cell.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(stats.GenLoss) || math.IsNaN(stats.DiscLoss) {
		t.Fatalf("LSGAN losses NaN: %+v", stats)
	}
}
