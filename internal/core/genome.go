// Package core implements the paper's primary contribution: cellular
// competitive coevolutionary training of two populations of GANs on a
// toroidal grid (the Mustangs/Lipizzaner scheme of §II), together with the
// two execution modes compared in the evaluation — a sequential
// single-process mode and a parallel mode in which every cell is an MPI
// rank exchanging center networks with its neighbourhood each iteration.
//
// Each grid cell holds a center generator and a center discriminator. One
// training iteration performs (i) hyperparameter mutation of the Adam
// learning rates, (ii) adversarial gradient training of the centers
// against tournament-selected opponents from the neighbourhood
// sub-population, (iii) selection/replacement of the centers from the
// sub-population and a (1+1)-ES step on the generator mixture weights, and
// (iv) an exchange of updated centers with the neighbourhood.
// These are exactly the four routines profiled in the paper's Table IV
// (mutate, train, update genomes, gather).
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"cellgan/internal/config"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Genome is one evolvable individual: a network plus its evolvable
// hyperparameter (the optimizer learning rate, per Table I).
type Genome struct {
	// Net is the network's parameters and architecture.
	Net *nn.Network
	// LR is the current (mutated) learning rate.
	LR float64
	// Fitness is the most recent fitness evaluation (lower is better:
	// fitnesses are adversarial losses).
	Fitness float64
	// Loss is the adversarial objective this genome trains with — the
	// Mustangs loss-function gene. LossBCE reproduces plain Lipizzaner.
	Loss GANLoss
}

// Clone returns a deep copy of the genome.
func (g *Genome) Clone() *Genome {
	return &Genome{Net: g.Net.Clone(), LR: g.LR, Fitness: g.Fitness, Loss: g.Loss}
}

// hiddenLayerFor maps a config activation name to a layer constructor.
func hiddenLayerFor(name string) func() nn.Layer {
	switch name {
	case "relu":
		return func() nn.Layer { return nn.NewReLU() }
	case "leaky_relu":
		return func() nn.Layer { return nn.NewLeakyReLU(0.2) }
	default: // "tanh", the Table I setting
		return func() nn.Layer { return nn.NewTanh() }
	}
}

// cnnChannels derives the DCGAN base channel count from the configured
// hidden width so the CNN topology scales with the same knob as the MLP.
func cnnChannels(cfg config.Config) int {
	ch := cfg.NeuronsPerHidden / 16
	if ch < 2 {
		ch = 2
	}
	return ch
}

// BuildGenerator constructs the generator network. For the paper's "MLP"
// network type it is latent → hidden^HiddenLayers → image with tanh
// output. For "CNN" — the paper's future-work direction toward
// higher-dimensional images — it is a DCGAN-style stack: a linear
// projection to 2ch×7×7 followed by two stride-2 transposed convolutions
// up to 28×28.
func BuildGenerator(cfg config.Config, rng *tensor.RNG) *nn.Network {
	if cfg.NetworkType == "CNN" {
		ch := cnnChannels(cfg)
		ct1, err := nn.NewConvTranspose2D(2*ch, 7, 7, ch, 4, 2, 1, rng)
		if err != nil {
			panic(err) // fixed geometry, cannot fail
		}
		ct2, err := nn.NewConvTranspose2D(ch, 14, 14, 1, 4, 2, 1, rng)
		if err != nil {
			panic(err)
		}
		return nn.NewNetwork(
			nn.NewLinear(cfg.InputNeurons, 2*ch*7*7, rng), nn.NewTanh(),
			ct1, nn.NewTanh(),
			ct2, nn.NewTanh(),
		)
	}
	return nn.MLP(cfg.GeneratorSizes(), hiddenLayerFor(cfg.Activation),
		func() nn.Layer { return nn.NewTanh() }, rng)
}

// BuildDiscriminator constructs the discriminator network: for "MLP",
// image → hidden^HiddenLayers → 1 raw logit; for "CNN", two stride-2
// convolutions with leaky-ReLU down to 7×7 and a linear head (losses use
// the numerically stable logit form of binary cross-entropy either way).
func BuildDiscriminator(cfg config.Config, rng *tensor.RNG) *nn.Network {
	if cfg.NetworkType == "CNN" {
		ch := cnnChannels(cfg)
		cv1, err := nn.NewConv2D(1, 28, 28, ch, 4, 2, 1, rng)
		if err != nil {
			panic(err)
		}
		cv2, err := nn.NewConv2D(ch, 14, 14, 2*ch, 4, 2, 1, rng)
		if err != nil {
			panic(err)
		}
		return nn.NewNetwork(
			cv1, nn.NewLeakyReLU(0.2),
			cv2, nn.NewLeakyReLU(0.2),
			nn.NewLinear(2*ch*7*7, 1, rng),
		)
	}
	return nn.MLP(cfg.DiscriminatorSizes(), hiddenLayerFor(cfg.Activation), nil, rng)
}

// CellState is the serialisable snapshot of a cell's center genomes — the
// unit of neighbourhood communication. It is what the paper's slaves
// gather after every training iteration.
type CellState struct {
	// Rank is the grid cell (== MPI slave index) this state belongs to.
	Rank int
	// Iteration is the training iteration the snapshot was taken after.
	Iteration int
	// GenLR and DiscLR are the current learning rates.
	GenLR, DiscLR float64
	// GenFitness and DiscFitness are the latest fitness values.
	GenFitness, DiscFitness float64
	// GenLoss and DiscLoss are the Mustangs loss-function genes.
	GenLoss, DiscLoss GANLoss
	// GenParams and DiscParams are the encoded network parameters.
	GenParams, DiscParams []byte
}

// stateMagic guards CellState decoding.
const stateMagic = 0x43454c4c // "CELL"

// stateHeaderSize is the encoded magic, rank, iteration, learning rates,
// fitnesses and loss genes (one 8-byte word each).
const stateHeaderSize = 9 * 8

// appendHeader appends everything of the encoding that precedes the two
// parameter blobs.
func (s *CellState) appendHeader(dst []byte) []byte {
	for _, v := range [...]uint64{
		stateMagic, uint64(int64(s.Rank)), uint64(int64(s.Iteration)),
		math.Float64bits(s.GenLR), math.Float64bits(s.DiscLR),
		math.Float64bits(s.GenFitness), math.Float64bits(s.DiscFitness),
		uint64(s.GenLoss), uint64(s.DiscLoss),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// Marshal serialises the state to a compact binary form: the header, then
// each parameter blob behind its 8-byte length.
func (s *CellState) Marshal() []byte {
	out := make([]byte, 0, stateHeaderSize+16+len(s.GenParams)+len(s.DiscParams))
	out = s.appendHeader(out)
	for _, blob := range [][]byte{s.GenParams, s.DiscParams} {
		out = append(binary.LittleEndian.AppendUint64(out, uint64(len(blob))), blob...)
	}
	return out
}

// aligned returns s with its parameter blobs re-encoded from the file
// layout (Marshal) into the push layout — the form Exchange pushes and a
// kept neighbour pair views — written over buf, which is grown if short.
// The result's GenParams starts the buffer, at buf's full capacity.
func (s *CellState) aligned(buf []byte) (*CellState, error) {
	buf, err := tensor.AlignMats(buf[:0], s.GenParams)
	n := len(buf)
	if err == nil {
		buf, err = tensor.AlignMats(buf, s.DiscParams)
	}
	if err != nil {
		return nil, fmt.Errorf("core: parameters of rank %d: %w", s.Rank, err)
	}
	a := *s
	a.GenParams, a.DiscParams = buf[:n], buf[n:]
	return &a, nil
}

// UnmarshalCellState decodes a snapshot produced by Marshal. The parameter
// blobs of the result alias data; the caller must not reuse data while the
// state is in use.
func UnmarshalCellState(data []byte) (*CellState, error) {
	if len(data) < stateHeaderSize || binary.LittleEndian.Uint64(data) != stateMagic {
		return nil, fmt.Errorf("core: bad or truncated cell-state header")
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	s := &CellState{
		Rank: int(int64(word(1))), Iteration: int(int64(word(2))),
		GenLR: math.Float64frombits(word(3)), DiscLR: math.Float64frombits(word(4)),
		GenFitness: math.Float64frombits(word(5)), DiscFitness: math.Float64frombits(word(6)),
		GenLoss: GANLoss(word(7)), DiscLoss: GANLoss(word(8)),
	}
	rest := data[stateHeaderSize:]
	for _, blob := range []*[]byte{&s.GenParams, &s.DiscParams} {
		if len(rest) < 8 {
			return nil, fmt.Errorf("core: truncated cell-state blob length")
		}
		n := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("core: blob length %d exceeds remaining %d", n, len(rest))
		}
		*blob, rest = rest[:n:n], rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in cell state", len(rest))
	}
	return s, nil
}
