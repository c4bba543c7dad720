package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/core"
)

// seedCheckpoint trains cfg for its one iteration and returns the result
// as a checkpoint for the fuzz corpus.
func seedCheckpoint(f *testing.F, cfg config.Config) *Checkpoint {
	f.Helper()
	res, err := core.RunSequential(cfg, core.RunOptions{})
	if err != nil {
		f.Fatal(err)
	}
	cp, err := FromResult(res)
	if err != nil {
		f.Fatal(err)
	}
	return cp
}

func checkpointBytes(f *testing.F, cp *Checkpoint) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, cp); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCheckpoint asserts the checkpoint decoder never panics and never
// trusts hostile headers: every input either parses into a structurally
// valid checkpoint (which must re-encode) or returns an error. What Read
// accepts for the corpus configuration must also resume or be refused:
// the decoder cannot see that optimizer moments fit the networks, so that
// is checked where they meet.
func FuzzReadCheckpoint(f *testing.F) {
	seedCfg := tinyCfg(1)
	cp := seedCheckpoint(f, seedCfg)
	seed := checkpointBytes(f, cp)
	f.Add(seed)
	// Well-formed, checksummed, and a bomb: cell 0's generator moments come
	// from a narrower network, which Adam.Step once indexed out of range.
	narrow := seedCfg
	narrow.NeuronsPerHidden /= 2
	cp.States[0].GenOpt = seedCheckpoint(f, narrow).States[0].GenOpt
	f.Add(checkpointBytes(f, cp))
	f.Add(seed[:len(seed)/2])          // truncated mid-state
	f.Add(seed[:24])                   // truncated inside the config blob
	f.Add([]byte{})                    // empty
	f.Add(bytes.Repeat([]byte{0}, 64)) // zero garbage
	// Regression: a header declaring a huge config section over a tiny
	// stream must fail without attempting the allocation.
	huge := append([]byte(nil), seed[:24]...)
	binary.LittleEndian.PutUint64(huge[16:24], maxSection)
	f.Add(huge)
	// A valid body whose checksum footer is damaged by one bit: the
	// whole-file verification must reject it before any decoding.
	badFooter := append([]byte(nil), seed...)
	badFooter[len(badFooter)-1] ^= 0x01
	f.Add(badFooter)
	// A bit flip in the body with the stale footer left in place.
	badBody := append([]byte(nil), seed...)
	badBody[len(badBody)/3] ^= 0x01
	f.Add(badBody)
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(cp.States) != cp.Cfg.NumCells() {
			t.Fatalf("decoded checkpoint has %d states for %d cells", len(cp.States), cp.Cfg.NumCells())
		}
		var buf bytes.Buffer
		if err := Write(&buf, cp); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		if cp.Cfg == seedCfg {
			cfg := cp.Cfg
			cfg.Iterations++
			_, _ = core.RunSequential(cfg, core.RunOptions{Resume: cp.States})
		}
	})
}

// FuzzReadMixture does the same for the deployable mixture artifact.
func FuzzReadMixture(f *testing.F) {
	res, err := core.RunSequential(tinyCfg(1), core.RunOptions{})
	if err != nil {
		f.Fatal(err)
	}
	a, err := ExportMixture(res, res.BestRank)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:17])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 48))
	badFooter := append([]byte(nil), seed...)
	badFooter[len(badFooter)-1] ^= 0x01
	f.Add(badFooter)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadMixture(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(a.Ranks) == 0 || len(a.Ranks) != len(a.Weights) || len(a.Ranks) != len(a.GenParams) {
			t.Fatalf("accepted artifact is misaligned: %d ranks, %d weights, %d params",
				len(a.Ranks), len(a.Weights), len(a.GenParams))
		}
		var out bytes.Buffer
		if err := WriteMixture(&out, a); err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
	})
}
