package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cellgan/internal/dataset"
)

// FullState is the complete serialisable training state of one cell:
// everything needed to resume bit-for-bit — network parameters and
// hyperparameters (the CellState), optimizer moments, the cell's random
// stream, the data loader position, the training step counter and the
// mixture weights. It exists for checkpoint/resume across the multi-day
// runs the paper's 96-hour time limit anticipates; the lean CellState
// remains the per-iteration exchange unit.
type FullState struct {
	Cell           *CellState
	GenOpt         []byte
	DiscOpt        []byte
	RNG            []byte
	Loader         dataset.LoaderState
	Step           int
	MixtureRanks   []int
	MixtureWeights []float64
}

const fullStateMagic = 0x46554c4c // "FULL"

// Marshal serialises the full state to a self-delimiting binary blob.
func (f *FullState) Marshal() []byte {
	var buf bytes.Buffer
	wU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	wBlob := func(b []byte) {
		wU64(uint64(len(b)))
		buf.Write(b)
	}
	wU64(fullStateMagic)
	wBlob(f.Cell.Marshal())
	wBlob(f.GenOpt)
	wBlob(f.DiscOpt)
	wBlob(f.RNG)
	// Loader state.
	wU64(uint64(len(f.Loader.Perm)))
	for _, v := range f.Loader.Perm {
		wU64(uint64(int64(v)))
	}
	wU64(uint64(int64(f.Loader.Cursor)))
	wU64(uint64(int64(f.Loader.Epoch)))
	wBlob(f.Loader.RNG)
	wU64(uint64(int64(f.Step)))
	// Mixture.
	wU64(uint64(len(f.MixtureRanks)))
	for _, r := range f.MixtureRanks {
		wU64(uint64(int64(r)))
	}
	for _, w := range f.MixtureWeights {
		wU64(math.Float64bits(w))
	}
	return buf.Bytes()
}

// maxFullStateList bounds decoded list lengths against corrupt input.
const maxFullStateList = 1 << 26

// UnmarshalFullState reverses Marshal.
func UnmarshalFullState(data []byte) (*FullState, error) {
	rd := bytes.NewReader(data)
	rU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(rd, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	rBlob := func() ([]byte, error) {
		n, err := rU64()
		if err != nil {
			return nil, err
		}
		if n > uint64(rd.Len()) {
			return nil, fmt.Errorf("core: full-state blob length %d exceeds remaining %d", n, rd.Len())
		}
		b := make([]byte, n)
		if n > 0 {
			if _, err := io.ReadFull(rd, b); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	magic, err := rU64()
	if err != nil || magic != fullStateMagic {
		return nil, fmt.Errorf("core: bad full-state header")
	}
	f := &FullState{}
	cellBlob, err := rBlob()
	if err != nil {
		return nil, fmt.Errorf("core: full state cell: %w", err)
	}
	if f.Cell, err = UnmarshalCellState(cellBlob); err != nil {
		return nil, err
	}
	if f.GenOpt, err = rBlob(); err != nil {
		return nil, fmt.Errorf("core: full state gen optimizer: %w", err)
	}
	if f.DiscOpt, err = rBlob(); err != nil {
		return nil, fmt.Errorf("core: full state disc optimizer: %w", err)
	}
	if f.RNG, err = rBlob(); err != nil {
		return nil, fmt.Errorf("core: full state rng: %w", err)
	}
	permLen, err := rU64()
	if err != nil {
		return nil, fmt.Errorf("core: full state loader: %w", err)
	}
	// Each entry is 8 bytes; a declared length beyond the remaining input
	// is corrupt, and checking first keeps the allocation honest.
	if permLen > maxFullStateList || permLen > uint64(rd.Len())/8 {
		return nil, fmt.Errorf("core: implausible permutation length %d", permLen)
	}
	f.Loader.Perm = make([]int, permLen)
	for i := range f.Loader.Perm {
		v, err := rU64()
		if err != nil {
			return nil, fmt.Errorf("core: full state permutation: %w", err)
		}
		f.Loader.Perm[i] = int(int64(v))
	}
	for _, dst := range []*int{&f.Loader.Cursor, &f.Loader.Epoch} {
		v, err := rU64()
		if err != nil {
			return nil, fmt.Errorf("core: full state loader position: %w", err)
		}
		*dst = int(int64(v))
	}
	if f.Loader.RNG, err = rBlob(); err != nil {
		return nil, fmt.Errorf("core: full state loader rng: %w", err)
	}
	stepV, err := rU64()
	if err != nil {
		return nil, fmt.Errorf("core: full state step: %w", err)
	}
	f.Step = int(int64(stepV))
	mixLen, err := rU64()
	if err != nil {
		return nil, fmt.Errorf("core: full state mixture: %w", err)
	}
	// Ranks and weights are 16 bytes per entry; bound by what remains.
	if mixLen > maxFullStateList || mixLen > uint64(rd.Len())/16 {
		return nil, fmt.Errorf("core: implausible mixture length %d", mixLen)
	}
	f.MixtureRanks = make([]int, mixLen)
	for i := range f.MixtureRanks {
		v, err := rU64()
		if err != nil {
			return nil, fmt.Errorf("core: full state mixture ranks: %w", err)
		}
		f.MixtureRanks[i] = int(int64(v))
	}
	f.MixtureWeights = make([]float64, mixLen)
	for i := range f.MixtureWeights {
		v, err := rU64()
		if err != nil {
			return nil, fmt.Errorf("core: full state mixture weights: %w", err)
		}
		f.MixtureWeights[i] = math.Float64frombits(v)
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in full state", rd.Len())
	}
	return f, nil
}

// FullState snapshots the cell completely for checkpointing.
func (c *Cell) FullState() (*FullState, error) {
	cellState, err := c.State()
	if err != nil {
		return nil, err
	}
	genOpt, err := c.genOpt.StateBinary()
	if err != nil {
		return nil, err
	}
	discOpt, err := c.discOpt.StateBinary()
	if err != nil {
		return nil, err
	}
	rngState, err := c.rng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	loaderState, err := c.loader.State()
	if err != nil {
		return nil, err
	}
	return &FullState{
		Cell:           cellState,
		GenOpt:         genOpt,
		DiscOpt:        discOpt,
		RNG:            rngState,
		Loader:         loaderState,
		Step:           c.step,
		MixtureRanks:   append([]int(nil), c.mixture.Ranks...),
		MixtureWeights: append([]float64(nil), c.mixture.Weights...),
	}, nil
}

// RestoreFull overwrites a freshly constructed cell with a checkpointed
// state. The cell must have been created with the same configuration and
// rank. Mixture weights are re-applied at the next neighbourhood exchange
// (the mixture's member networks are neighbour state, which arrives with
// the exchange); training resumed this way is bit-identical to an
// uninterrupted run.
func (c *Cell) RestoreFull(f *FullState) error {
	if f.Cell.Rank != c.Rank {
		return fmt.Errorf("core: restoring rank-%d state into cell %d", f.Cell.Rank, c.Rank)
	}
	if err := c.gen.Net.DecodeParams(f.Cell.GenParams); err != nil {
		return err
	}
	if err := c.disc.Net.DecodeParams(f.Cell.DiscParams); err != nil {
		return err
	}
	c.gen.LR = f.Cell.GenLR
	c.gen.Fitness = f.Cell.GenFitness
	c.gen.Loss = f.Cell.GenLoss
	c.disc.LR = f.Cell.DiscLR
	c.disc.Fitness = f.Cell.DiscFitness
	c.disc.Loss = f.Cell.DiscLoss
	if err := c.genOpt.RestoreBinary(c.gen.Net, f.GenOpt); err != nil {
		return fmt.Errorf("core: cell %d generator optimizer: %w", c.Rank, err)
	}
	if err := c.discOpt.RestoreBinary(c.disc.Net, f.DiscOpt); err != nil {
		return fmt.Errorf("core: cell %d discriminator optimizer: %w", c.Rank, err)
	}
	if err := c.rng.UnmarshalBinary(f.RNG); err != nil {
		return err
	}
	if err := c.loader.Restore(f.Loader); err != nil {
		return err
	}
	c.step = f.Step
	c.iteration = f.Cell.Iteration
	if len(f.MixtureRanks) != len(f.MixtureWeights) {
		return fmt.Errorf("core: mixture ranks/weights length mismatch %d/%d",
			len(f.MixtureRanks), len(f.MixtureWeights))
	}
	c.restoredWeights = make(map[int]float64, len(f.MixtureRanks))
	for i, r := range f.MixtureRanks {
		c.restoredWeights[r] = f.MixtureWeights[i]
	}
	c.applyRestoredWeights()
	return nil
}

// applyRestoredWeights overrides mixture weights with checkpointed values
// for the ranks currently present, then normalises. The pending map is
// cleared once every checkpointed member has been seen.
func (c *Cell) applyRestoredWeights() {
	if c.restoredWeights == nil {
		return
	}
	covered := 0
	for i, r := range c.mixture.Ranks {
		if w, ok := c.restoredWeights[r]; ok {
			c.mixture.Weights[i] = w
			covered++
		}
	}
	normalizeWeights(c.mixture.Weights)
	if covered == len(c.restoredWeights) {
		c.restoredWeights = nil
	}
}
