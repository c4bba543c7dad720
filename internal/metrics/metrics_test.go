package metrics

import (
	"math"
	"sync"
	"testing"

	"cellgan/internal/dataset"
	"cellgan/internal/tensor"
)

// sharedClassifier trains one classifier for the whole test package; the
// training itself is exercised by TestClassifierLearns.
var (
	clsOnce sync.Once
	cls     *Classifier
	clsErr  error
)

func testClassifier(t *testing.T) *Classifier {
	t.Helper()
	clsOnce.Do(func() {
		cls, clsErr = TrainClassifier(dataset.Train(1), DefaultClassifierOptions(), tensor.NewRNG(7))
	})
	if clsErr != nil {
		t.Fatal(clsErr)
	}
	return cls
}

func TestClassifierOptionValidation(t *testing.T) {
	bad := DefaultClassifierOptions()
	bad.Hidden = 0
	if _, err := TrainClassifier(dataset.Train(1), bad, tensor.NewRNG(1)); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestClassifierLearns(t *testing.T) {
	c := testClassifier(t)
	acc := c.Accuracy(dataset.Test(1), 500)
	if acc < 0.8 {
		t.Fatalf("classifier accuracy %.3f < 0.8 on held-out synthetic digits", acc)
	}
}

func TestClassifierTrainSamplesClamped(t *testing.T) {
	opts := DefaultClassifierOptions()
	opts.TrainSamples = 1 << 30
	opts.Epochs = 1
	ds := dataset.Train(2).WithSize(60)
	if _, err := TrainClassifier(ds, opts, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
}

func TestProbsRowsSumToOne(t *testing.T) {
	c := testClassifier(t)
	x, _ := dataset.Test(1).Batch([]int{0, 1, 2, 3})
	p := c.Probs(x)
	for i := 0; i < p.Rows; i++ {
		s := 0.0
		for _, v := range p.Row(i) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestFeaturesShape(t *testing.T) {
	c := testClassifier(t)
	x, _ := dataset.Test(1).Batch([]int{0, 1})
	f := c.Features(x)
	if f.Rows != 2 || f.Cols != DefaultClassifierOptions().Hidden {
		t.Fatalf("features %d×%d", f.Rows, f.Cols)
	}
	if f.Min() < -1 || f.Max() > 1 {
		t.Fatal("tanh features out of range")
	}
}

func TestInceptionScoreBounds(t *testing.T) {
	// Constant-class generator → IS = 1.
	collapsed := tensor.New(50, 10)
	for i := 0; i < 50; i++ {
		collapsed.Set(i, 3, 1)
	}
	if got := InceptionScore(collapsed); math.Abs(got-1) > 1e-9 {
		t.Fatalf("collapsed IS = %v want 1", got)
	}
	// Ideal generator: confident predictions, uniform across classes.
	ideal := tensor.New(50, 10)
	for i := 0; i < 50; i++ {
		ideal.Set(i, i%10, 1)
	}
	if got := InceptionScore(ideal); math.Abs(got-10) > 1e-9 {
		t.Fatalf("ideal IS = %v want 10", got)
	}
	// Uncertain generator: uniform p(y|x) → IS = 1.
	uniform := tensor.Full(50, 10, 0.1)
	if got := InceptionScore(uniform); math.Abs(got-1) > 1e-9 {
		t.Fatalf("uniform IS = %v want 1", got)
	}
	if got := InceptionScore(tensor.New(0, 10)); got != 0 {
		t.Fatalf("empty IS = %v", got)
	}
}

func TestInceptionScoreOrdersQuality(t *testing.T) {
	// Two modes covered should score between collapse (1) and ideal (10).
	twoModes := tensor.New(40, 10)
	for i := 0; i < 40; i++ {
		twoModes.Set(i, i%2, 1)
	}
	got := InceptionScore(twoModes)
	if got < 1.9 || got > 2.1 {
		t.Fatalf("two-mode IS = %v want ≈2", got)
	}
}

func TestFrechetDiagIdenticalZero(t *testing.T) {
	rng := tensor.NewRNG(5)
	a := tensor.New(100, 8)
	tensor.GaussianFill(a, 0, 1, rng)
	fd, err := FrechetDiag(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fd) > 1e-9 {
		t.Fatalf("identical FD = %v", fd)
	}
}

func TestFrechetDiagSeparatesDistributions(t *testing.T) {
	rng := tensor.NewRNG(6)
	real := tensor.New(200, 4)
	tensor.GaussianFill(real, 0, 1, rng)
	close := tensor.New(200, 4)
	tensor.GaussianFill(close, 0.1, 1, rng)
	far := tensor.New(200, 4)
	tensor.GaussianFill(far, 3, 0.2, rng)
	fdClose, err := FrechetDiag(real, close)
	if err != nil {
		t.Fatal(err)
	}
	fdFar, err := FrechetDiag(real, far)
	if err != nil {
		t.Fatal(err)
	}
	if fdClose >= fdFar {
		t.Fatalf("FD ordering broken: close %v far %v", fdClose, fdFar)
	}
}

func TestFrechetDiagValidation(t *testing.T) {
	if _, err := FrechetDiag(tensor.New(5, 3), tensor.New(5, 4)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := FrechetDiag(tensor.New(1, 3), tensor.New(5, 3)); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestModeStats(t *testing.T) {
	probs := tensor.New(6, 3)
	preds := []int{0, 0, 2, 2, 2, 0}
	for i, p := range preds {
		probs.Set(i, p, 1)
	}
	hist, coverage := ModeStats(probs)
	if coverage != 2 {
		t.Fatalf("coverage %d", coverage)
	}
	if hist[0] != 3 || hist[1] != 0 || hist[2] != 3 {
		t.Fatalf("hist %v", hist)
	}
}

func TestTVDFromUniform(t *testing.T) {
	if got := TVDFromUniform([]int{10, 10, 10, 10}); got != 0 {
		t.Fatalf("balanced TVD %v", got)
	}
	got := TVDFromUniform([]int{40, 0, 0, 0})
	if math.Abs(got-0.75) > 1e-12 { // 1 - 1/4
		t.Fatalf("collapsed TVD %v want 0.75", got)
	}
	if got := TVDFromUniform(nil); got != 0 {
		t.Fatalf("empty TVD %v", got)
	}
	if got := TVDFromUniform([]int{0, 0}); got != 0 {
		t.Fatalf("zero-total TVD %v", got)
	}
}

func TestEvaluateRealDataScoresWell(t *testing.T) {
	// Real samples presented as "generated" should look excellent: high
	// IS, near-zero Fréchet, full mode coverage.
	c := testClassifier(t)
	ds := dataset.Test(1)
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = 200 + i
	}
	realAsGen, _ := ds.Batch(idx)
	rep, err := Evaluate(c, realAsGen, ds, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InceptionScore < 5 {
		t.Fatalf("IS of real data %v", rep.InceptionScore)
	}
	if rep.ModeCoverage < 9 {
		t.Fatalf("mode coverage of real data %d", rep.ModeCoverage)
	}
	if rep.TVD > 0.15 {
		t.Fatalf("TVD of real data %v", rep.TVD)
	}
}

func TestEvaluateNoiseScoresPoorly(t *testing.T) {
	c := testClassifier(t)
	ds := dataset.Test(1)
	rng := tensor.NewRNG(9)
	noise := tensor.New(200, dataset.Pixels)
	tensor.UniformFill(noise, -1, 1, rng)
	repNoise, err := Evaluate(c, noise, ds, 200)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = i
	}
	realAsGen, _ := ds.Batch(idx)
	repReal, err := Evaluate(c, realAsGen, ds, 200)
	if err != nil {
		t.Fatal(err)
	}
	if repNoise.Frechet <= repReal.Frechet {
		t.Fatalf("noise Fréchet %v should exceed real %v", repNoise.Frechet, repReal.Frechet)
	}
}

func TestEvaluateValidation(t *testing.T) {
	c := testClassifier(t)
	if _, err := Evaluate(c, tensor.New(5, 10), dataset.Test(1), 50); err == nil {
		t.Fatal("wrong pixel count accepted")
	}
}

// TestClassifierConcurrentUse: one classifier scores batches from two
// goroutines at once, each call on a workspace of its own, and every
// result equals the single-goroutine one. A layer that kept pass state
// would race here under -race.
func TestClassifierConcurrentUse(t *testing.T) {
	c := testClassifier(t)
	x, _ := dataset.Test(1).Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	logits, features := c.Logits(x), c.Features(x)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if !c.Logits(x).Equal(logits) || !c.Features(x).Equal(features) {
					t.Error("a concurrent pass differs from the single-goroutine one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
