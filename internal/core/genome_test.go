package core

import (
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/tensor"
)

// tinyConfig returns a fast configuration for unit tests: narrow layers,
// two iterations of one 8-sample batch over a 100-image dataset slice.
func tinyConfig() config.Config {
	return config.Default().Scaled(2, 8, 100)
}

func TestBuildNetworksShapes(t *testing.T) {
	cfg := config.Default()
	rng := tensor.NewRNG(1)
	g := BuildGenerator(cfg, rng)
	d := BuildDiscriminator(cfg, rng)

	z := tensor.New(3, cfg.InputNeurons)
	tensor.GaussianFill(z, 0, 1, rng)
	img := forward(g, z)
	if img.Rows != 3 || img.Cols != cfg.OutputNeurons {
		t.Fatalf("generator output %d×%d", img.Rows, img.Cols)
	}
	if img.Max() > 1 || img.Min() < -1 {
		t.Fatal("generator output escaped tanh range")
	}
	logits := forward(d, img)
	if logits.Rows != 3 || logits.Cols != 1 {
		t.Fatalf("discriminator output %d×%d", logits.Rows, logits.Cols)
	}
}

func TestHiddenLayerFor(t *testing.T) {
	for _, name := range []string{"tanh", "relu", "leaky_relu", "unknown"} {
		l := hiddenLayerFor(name)()
		if l == nil {
			t.Fatalf("no layer for %q", name)
		}
	}
}

func TestGenomeClone(t *testing.T) {
	cfg := tinyConfig()
	rng := tensor.NewRNG(2)
	g := &Genome{Net: BuildGenerator(cfg, rng), LR: 0.01, Fitness: 3}
	c := g.Clone()
	if c.LR != 0.01 || c.Fitness != 3 {
		t.Fatal("scalar fields not cloned")
	}
	c.Net.Params()[0].Set(0, 0, 99)
	if g.Net.Params()[0].At(0, 0) == 99 {
		t.Fatal("clone shares parameters")
	}
}

func TestCellStateRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	rng := tensor.NewRNG(3)
	gen := BuildGenerator(cfg, rng)
	disc := BuildDiscriminator(cfg, rng)
	gp, err := gen.EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := disc.EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	s := &CellState{
		Rank: 3, Iteration: 17,
		GenLR: 1e-4, DiscLR: 2e-4,
		GenFitness: 0.5, DiscFitness: -0.25,
		GenParams: gp, DiscParams: dp,
	}
	got, err := UnmarshalCellState(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 3 || got.Iteration != 17 || got.GenLR != 1e-4 || got.DiscLR != 2e-4 ||
		got.GenFitness != 0.5 || got.DiscFitness != -0.25 {
		t.Fatalf("scalars: %+v", got)
	}
	g2, d2 := BuildGenerator(cfg, rng), BuildDiscriminator(cfg, rng)
	if err := g2.DecodeParams(got.GenParams); err != nil {
		t.Fatal(err)
	}
	if err := d2.DecodeParams(got.DiscParams); err != nil {
		t.Fatal(err)
	}
	if g2.ParamsL2() != gen.ParamsL2() {
		t.Fatal("generator params changed in transit")
	}
	if d2.ParamsL2() != disc.ParamsL2() {
		t.Fatal("discriminator params changed in transit")
	}
}

func TestUnmarshalCellStateErrors(t *testing.T) {
	cfg := tinyConfig()
	rng := tensor.NewRNG(4)
	gen := BuildGenerator(cfg, rng)
	gp, _ := gen.EncodeParams()
	s := &CellState{Rank: 0, GenParams: gp, DiscParams: gp}
	good := s.Marshal()

	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  append([]byte{1}, good[1:]...),
		"truncated":  good[:20],
		"short blob": good[:len(good)-3],
		"trailing":   append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := UnmarshalCellState(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNeighborRejectsWrongArch: a snapshot whose discriminator blob has the
// wrong shapes is refused, and the neighbour it would have overwritten is
// still the one installed before.
func TestNeighborRejectsWrongArch(t *testing.T) {
	cfg := tinyConfig()
	c0, _ := newTestCell(t, cfg, 0)
	c1, _ := newTestCell(t, cfg, 1)
	s1, err := c1.State()
	if err != nil {
		t.Fatal(err)
	}
	x := NewExchange(c0, 1)
	x.Offer(s1)
	if _, err := x.Settle(nil); err != nil {
		t.Fatal(err)
	}
	before := c0.discNbrs[1].Net.ParamsL2()
	bad := *s1
	bad.DiscParams = s1.GenParams // generator-shaped
	x.Offer(&bad)
	if _, err := x.Settle(nil); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
	if got := c0.discNbrs[1].Net.ParamsL2(); got != before {
		t.Fatalf("rejected snapshot changed the kept discriminator: %v → %v", before, got)
	}
}
