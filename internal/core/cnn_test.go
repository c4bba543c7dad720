package core

import (
	"math"
	"testing"

	"cellgan/internal/grid"
	"cellgan/internal/tensor"
)

func TestCNNBuildersShapes(t *testing.T) {
	cfg := tinyConfig()
	cfg.NetworkType = "CNN"
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	g := BuildGenerator(cfg, rng)
	d := BuildDiscriminator(cfg, rng)
	z := tensor.New(2, cfg.InputNeurons)
	tensor.GaussianFill(z, 0, 1, rng)
	img := forward(g, z)
	if img.Rows != 2 || img.Cols != 784 {
		t.Fatalf("CNN generator output %d×%d", img.Rows, img.Cols)
	}
	if img.Max() > 1 || img.Min() < -1 {
		t.Fatal("CNN generator escaped tanh range")
	}
	logits := forward(d, img)
	if logits.Rows != 2 || logits.Cols != 1 {
		t.Fatalf("CNN discriminator output %d×%d", logits.Rows, logits.Cols)
	}
}

func TestCNNCellIterates(t *testing.T) {
	cfg := tinyConfig()
	cfg.NetworkType = "CNN"
	cfg.BatchSize = 4
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cell, err := NewCell(cfg, 0, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cell.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(stats.GenLoss) || math.IsNaN(stats.DiscLoss) {
		t.Fatalf("CNN losses NaN: %+v", stats)
	}
}

func TestCNNStateExchangeRoundTrip(t *testing.T) {
	// CNN genomes must survive the serialise/deserialise of the
	// neighbourhood exchange like MLP ones.
	cfg := tinyConfig()
	cfg.NetworkType = "CNN"
	cfg.BatchSize = 4
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	a, err := NewCell(cfg, 0, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCell(cfg, 1, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetNeighbors(map[int]*CellState{1: sb}); err != nil {
		t.Fatal(err)
	}
	if len(a.Mixture().Ranks) != 2 {
		t.Fatalf("CNN mixture %v", a.Mixture().Ranks)
	}
}

func TestCNNRejectsNon784Output(t *testing.T) {
	cfg := tinyConfig()
	cfg.NetworkType = "CNN"
	cfg.OutputNeurons = 100
	if err := cfg.Validate(); err == nil {
		t.Fatal("CNN with 100 outputs accepted")
	}
}
