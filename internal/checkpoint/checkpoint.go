// Package checkpoint persists and restores complete training runs. The
// paper's jobs run under a 96-hour limit on a best-effort queue, where
// preemption is routine; checkpointing turns the limit into a pause:
// a saved run resumes bit-for-bit (asserted by tests) because every
// stochastic component's state — network parameters, optimizer moments,
// random streams, data-loader positions, mixture weights — is captured.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"cellgan/internal/config"
	"cellgan/internal/core"
)

// Checkpoint is a complete resumable training run.
type Checkpoint struct {
	// Cfg is the run configuration; a resume must use a config that
	// differs at most in the iteration target.
	Cfg config.Config
	// States holds one full cell state per grid rank, in rank order.
	States []*core.FullState
}

// FromResult captures a checkpoint from a finished (or partially
// finished) run.
func FromResult(res *core.Result) (*Checkpoint, error) {
	return New(res.Cfg, res.Full)
}

// New builds a checkpoint from per-rank full states, validating that
// every grid cell is present and in rank order. Async snapshots are
// allowed to mix iterations; the states just have to be complete. Resume
// is stricter: neighbouring cells must be at most W−1 iterations apart
// for the window W it resumes with (1 in the seq and par modes,
// Cfg.AsyncStaleness in async mode). The cluster async master's
// best-effort snapshots can sit S apart under a window of S, so
// resuming one in-process needs Cfg.AsyncStaleness raised to S+1; the
// error names the window that accepts the set.
func New(cfg config.Config, states []*core.FullState) (*Checkpoint, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("checkpoint: no full states to checkpoint")
	}
	if len(states) != cfg.NumCells() {
		return nil, fmt.Errorf("checkpoint: %d states for a %d-cell grid", len(states), cfg.NumCells())
	}
	for i, f := range states {
		if f == nil {
			return nil, fmt.Errorf("checkpoint: missing full state for cell %d", i)
		}
		if f.Cell.Rank != i {
			return nil, fmt.Errorf("checkpoint: state %d is for rank %d", i, f.Cell.Rank)
		}
	}
	return &Checkpoint{Cfg: cfg, States: states}, nil
}

const (
	fileMagic = uint64(0x43474b505430) // "CGKPT0"
	// fileVersion 2 added the whole-file checksum footer; version 1
	// files (no footer) are rejected rather than trusted unchecked.
	fileVersion = uint64(2)
	// maxSection bounds one serialised section (256 MiB).
	maxSection = 256 << 20
)

// readSection reads one length-prefixed section. The buffer grows with the
// bytes actually read instead of trusting the declared length, so a
// corrupt or hostile header cannot force a huge allocation.
func readSection(r io.Reader, rU64 func() (uint64, error)) ([]byte, error) {
	n, err := rU64()
	if err != nil {
		return nil, err
	}
	if n > maxSection {
		return nil, fmt.Errorf("checkpoint: section of %d bytes exceeds limit", n)
	}
	b, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(len(b)) != n {
		return nil, fmt.Errorf("checkpoint: section truncated at %d of %d bytes: %w", len(b), n, io.ErrUnexpectedEOF)
	}
	return b, nil
}

// Write serialises the checkpoint, ending with the whole-file checksum
// footer (footer.go) that Read verifies before decoding anything.
func Write(w io.Writer, cp *Checkpoint) error {
	if len(cp.States) != cp.Cfg.NumCells() {
		return fmt.Errorf("checkpoint: %d states for a %d-cell grid", len(cp.States), cp.Cfg.NumCells())
	}
	return writeWithFooter(w, func(w io.Writer) error { return writeBody(w, cp) })
}

func writeBody(w io.Writer, cp *Checkpoint) error {
	bw := bufio.NewWriter(w)
	wU64 := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	wBlob := func(b []byte) error {
		if err := wU64(uint64(len(b))); err != nil {
			return err
		}
		_, err := bw.Write(b)
		return err
	}
	if err := wU64(fileMagic); err != nil {
		return err
	}
	if err := wU64(fileVersion); err != nil {
		return err
	}
	cfgJSON, err := cp.Cfg.Marshal()
	if err != nil {
		return err
	}
	if err := wBlob(cfgJSON); err != nil {
		return err
	}
	if err := wU64(uint64(len(cp.States))); err != nil {
		return err
	}
	for _, s := range cp.States {
		if err := wBlob(s.Marshal()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserialises a checkpoint written by Write. The checksum footer
// is verified over the complete stream before any section is decoded, so
// torn or corrupt files fail with a clean error and never surface
// partial state.
func Read(r io.Reader) (*Checkpoint, error) {
	body, err := readVerified(r, "checkpoint")
	if err != nil {
		return nil, err
	}
	return readBody(body)
}

func readBody(body []byte) (*Checkpoint, error) {
	br := bytes.NewReader(body)
	rU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	rBlob := func() ([]byte, error) { return readSection(br, rU64) }
	magic, err := rU64()
	if err != nil || magic != fileMagic {
		return nil, fmt.Errorf("checkpoint: not a checkpoint stream")
	}
	version, err := rU64()
	if err != nil {
		return nil, err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", version)
	}
	cfgJSON, err := rBlob()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: config section: %w", err)
	}
	cfg, err := config.Unmarshal(cfgJSON)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nStates, err := rU64()
	if err != nil {
		return nil, err
	}
	if int(nStates) != cfg.NumCells() {
		return nil, fmt.Errorf("checkpoint: %d states for a %d-cell grid", nStates, cfg.NumCells())
	}
	cp := &Checkpoint{Cfg: cfg, States: make([]*core.FullState, nStates)}
	for i := range cp.States {
		blob, err := rBlob()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: state %d: %w", i, err)
		}
		if cp.States[i], err = core.UnmarshalFullState(blob); err != nil {
			return nil, fmt.Errorf("checkpoint: state %d: %w", i, err)
		}
		if cp.States[i].Cell.Rank != i {
			return nil, fmt.Errorf("checkpoint: state %d is for rank %d", i, cp.States[i].Cell.Rank)
		}
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last state", br.Len())
	}
	return cp, nil
}

// SaveFile writes the checkpoint crash-consistently: temp file, fsync,
// rename, parent-directory fsync (atomic.go).
func SaveFile(path string, cp *Checkpoint) error {
	return SaveFileFS(OS{}, path, cp)
}

// SaveFileFS is SaveFile through an injectable filesystem.
func SaveFileFS(fs FS, path string, cp *Checkpoint) error {
	return atomicWriteFile(fs, path, func(f File) error { return Write(f, cp) })
}

// LoadFile reads a checkpoint from disk.
func LoadFile(path string) (*Checkpoint, error) {
	return LoadFileFS(OS{}, path)
}

// LoadFileFS is LoadFile through an injectable filesystem.
func LoadFileFS(fs FS, path string) (*Checkpoint, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Resume continues a checkpointed run with mode ("seq", "par" or
// "async") until targetIterations, returning the new result. The stored
// configuration is reused with only the iteration target changed.
func Resume(cp *Checkpoint, mode string, targetIterations int, opts core.RunOptions) (*core.Result, error) {
	if cp.Iteration() >= targetIterations {
		return nil, fmt.Errorf("checkpoint: already at iteration %d, nothing to resume for a target of %d",
			cp.Iteration(), targetIterations)
	}
	cfg := cp.Cfg
	cfg.Iterations = targetIterations
	opts.Resume = cp.States
	return core.Run(mode, cfg, opts)
}

// Iteration returns the iteration the checkpoint was taken at: the
// minimum across cells, because an async snapshot may mix iterations
// and a resume must not skip work any cell still owes.
func (cp *Checkpoint) Iteration() int {
	if len(cp.States) == 0 {
		return 0
	}
	min := cp.States[0].Cell.Iteration
	for _, s := range cp.States[1:] {
		if s.Cell.Iteration < min {
			min = s.Cell.Iteration
		}
	}
	return min
}
