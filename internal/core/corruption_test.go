package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"cellgan/internal/config"
	"cellgan/internal/dataset"
	"cellgan/internal/grid"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Corrupted or adversarial byte streams from the network must produce
// errors, never panics — slaves exchange states with peers every
// iteration, so the decoders are a trust boundary.

func TestUnmarshalCellStateNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = UnmarshalCellState(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalFullStateNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = UnmarshalFullState(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlippedStateRejectedOrConsistent(t *testing.T) {
	// Flip every byte of a valid state one at a time: the decoder must
	// either error out or produce a structurally valid state — never
	// panic or return a state with mismatched parameter shapes.
	cfg := tinyConfig()
	rng := tensor.NewRNG(1)
	gen := BuildGenerator(cfg, rng)
	disc := BuildDiscriminator(cfg, rng)
	gp, _ := gen.EncodeParams()
	dp, _ := disc.EncodeParams()
	// The parameters in the push layout, as peers send them.
	s, err := (&CellState{Rank: 1, GenParams: gp, DiscParams: dp}).aligned(nil)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Marshal()
	c0, _ := newTestCell(t, cfg, 0)
	if err := c0.neighbor(1, s); err != nil {
		t.Fatal(err)
	}

	// Sample positions across the stream (every 977th byte keeps the test
	// fast while covering header, lengths and payload).
	for pos := 0; pos < len(good); pos += 977 {
		mutated := append([]byte(nil), good...)
		mutated[pos] ^= 0xff
		st, err := UnmarshalCellState(mutated)
		if err != nil {
			continue
		}
		// Decoded fine: the genome reconstruction must still either work
		// or error; both are acceptable, panics are not.
		_ = c0.neighbor(1, st)
	}
}

// TestCellStateRejectsEveryPrefix: a state cut anywhere — inside the
// header, inside a length word (a short read there once decoded
// "successfully"), inside a blob — is an error, for a state small enough to
// try every cut and for sampled cuts of a real one.
func TestCellStateRejectsEveryPrefix(t *testing.T) {
	// An empty final blob is the case the short read got wrong: the cut
	// length word read back as the zero it was about to be.
	for _, st := range []*CellState{
		{Rank: 2, Iteration: 5, GenParams: []byte{1, 2, 3}},
		{Rank: 2, Iteration: 5, GenParams: []byte{1, 2}, DiscParams: []byte{3}},
	} {
		small := st.Marshal()
		if _, err := UnmarshalCellState(small); err != nil {
			t.Fatal(err)
		}
		for n := range small {
			if _, err := UnmarshalCellState(small[:n]); err == nil {
				t.Errorf("prefix of %d of %d bytes accepted", n, len(small))
			}
		}
	}
	gp, _ := BuildGenerator(tinyConfig(), tensor.NewRNG(2)).EncodeParams()
	real := (&CellState{GenParams: gp, DiscParams: gp}).Marshal()
	for n := 0; n < len(real); n += 509 {
		if _, err := UnmarshalCellState(real[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// FuzzUnmarshalCellState: whatever the decoder accepts accounts for every
// input byte — header, two length words, two blobs — so no truncated or
// padded state passes for a whole one.
func FuzzUnmarshalCellState(f *testing.F) {
	gp, _ := BuildGenerator(tinyConfig(), tensor.NewRNG(2)).EncodeParams()
	for _, st := range []*CellState{
		{},
		{Rank: 2, Iteration: 5, GenParams: []byte{1, 2, 3}},
		{Rank: 1, GenLoss: LossLSGAN, GenParams: gp[:40], DiscParams: gp[:13]},
	} {
		good := st.Marshal()
		f.Add(good)
		f.Add(good[:len(good)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalCellState(data)
		if err != nil {
			return
		}
		if want := stateHeaderSize + 16 + len(s.GenParams) + len(s.DiscParams); want != len(data) {
			t.Fatalf("accepted %d bytes but the decoded state accounts for %d", len(data), want)
		}
		if !bytes.Equal(s.Marshal()[stateHeaderSize:], data[stateHeaderSize:]) {
			t.Fatal("blobs do not re-marshal to the input")
		}
	})
}

// FuzzDecodePush: the push decoder, which both exchange loops feed raw
// peer bytes, never panics, reads a header alone as the abort marker, and
// whatever else it accepts is a halt-at header and a whole cell state.
// Installing that state never panics either, and a kept pair it installs
// into views exactly the parameter blobs of the push, in its layout.
func FuzzDecodePush(f *testing.F) {
	cfg := tinyConfig()
	cfg.NeuronsPerHidden, cfg.InputNeurons = 2, 2 // small pushes, fast execs
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	c0, err := NewCell(cfg, 0, g, nil)
	if err != nil {
		f.Fatal(err)
	}
	c1, err := NewCell(cfg, 1, g, nil)
	if err != nil {
		f.Fatal(err)
	}
	st := c1.appendState(nil, true)
	for _, h := range []int{noHalt, 7, abortHalt} {
		f.Add(append(appendHalt(nil, h), st...))
		f.Add(appendHalt(nil, h))
	}
	f.Add(append(appendHalt(nil, 7), st[:len(st)-1]...))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		halt, s, err := decodePush(data)
		if len(data) == 8 {
			if err != nil || s != nil || halt != abortHalt {
				t.Fatalf("a header alone decoded as halt-at %d, state %v, error %v; want the abort marker", halt, s, err)
			}
			return
		}
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("a push with a body decoded to no state")
		}
		if !bytes.Equal(appendHalt(nil, halt), data[:8]) {
			t.Fatalf("halt-at %d does not re-encode to the header", halt)
		}
		if !bytes.Equal(s.Marshal()[stateHeaderSize:], data[8+stateHeaderSize:]) {
			t.Fatal("state blobs do not re-marshal to the body")
		}
		if c0.neighbor(1, s) != nil {
			return
		}
		// Re-encoded at each blob's own phase: its offset past a 64-byte
		// boundary of the push.
		p := c0.kept[1]
		for _, b := range []struct {
			net  *nn.Network
			blob []byte
		}{{p.gen.Net, s.GenParams}, {p.disc.Net, s.DiscParams}} {
			phase := int(binary.LittleEndian.Uint32(b.blob[4:]))
			if !bytes.Equal(tensor.AppendAlignedMats(make([]byte, phase), b.net.Params())[phase:], b.blob) {
				t.Fatal("the installed pair does not re-encode to the push's parameter blobs")
			}
		}
	})
}

// A full state whose optimizer moments were saved for another architecture
// used to restore without complaint and panic inside Adam.Step on the next
// Iterate (index out of range). RestoreFull must refuse it, naming the
// optimizer and the matrix, whichever of the two optimizers it is in.
func TestRestoreFullRejectsMismatchedOptimizerState(t *testing.T) {
	cfg := tinyConfig()
	trained := func(cfg config.Config) *FullState {
		c, _ := newTestCell(t, cfg, 0)
		if _, err := c.Iterate(); err != nil {
			t.Fatal(err)
		}
		f, err := c.FullState()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	narrow := cfg
	narrow.NeuronsPerHidden /= 2
	other := trained(narrow)
	for opt, swap := range map[string]func(f *FullState){
		"generator optimizer":     func(f *FullState) { f.GenOpt = other.GenOpt },
		"discriminator optimizer": func(f *FullState) { f.DiscOpt = other.DiscOpt },
	} {
		f := trained(cfg)
		swap(f)
		c, _ := newTestCell(t, cfg, 0)
		err := c.RestoreFull(f)
		if err == nil {
			t.Fatalf("%s state of a %d-wide network restored into a %d-wide one",
				opt, narrow.NeuronsPerHidden, cfg.NeuronsPerHidden)
		}
		if msg := err.Error(); !strings.Contains(msg, opt) || !strings.Contains(msg, "matrix 0 is") {
			t.Errorf("error names neither the optimizer nor the matrix: %v", err)
		}
	}
}

// FuzzRestoreFull: the adoption path the tolerant cluster slave runs on
// every full state an adoption order carries — decode it, restore it into
// a fresh cell and, if the restore was accepted, iterate once — ends in an
// error or a success for any input, never a panic.
func FuzzRestoreFull(f *testing.F) {
	cfg := tinyConfig()
	cfg.NeuronsPerHidden, cfg.InputNeurons = 2, 2 // small states, fast execs
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	src := dataset.Train(cfg.Seed).WithSize(cfg.DatasetSize)
	fresh := func(tb testing.TB) *Cell {
		c, err := NewCellWithData(cfg, 1, g, nil, src)
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	c := fresh(f)
	for i := 0; i < 2; i++ {
		st, err := c.FullState()
		if err != nil {
			f.Fatal(err)
		}
		good := st.Marshal()
		f.Add(good)
		f.Add(good[:len(good)-9])
		if _, err := c.Iterate(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalFullState(data)
		if err != nil {
			return
		}
		c := fresh(t)
		if err := c.RestoreFull(st); err != nil {
			return
		}
		c.Iterate() //nolint:errcheck // an error is an accepted outcome; a panic is not
	})
}
