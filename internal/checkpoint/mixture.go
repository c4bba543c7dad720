package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// MixtureArtifact is a generator-only export of a trained mixture — the
// deployable end-product of a run. Unlike a full Checkpoint it carries no
// optimizer moments, RNG streams or discriminators: just the run
// configuration (to rebuild the generator architecture), the mixture
// composition and each member's parameters. It is the input format of the
// serving model registry (internal/serve) and small enough to ship.
type MixtureArtifact struct {
	// Cfg is the training configuration; serving needs the generator
	// topology and latent dimension from it.
	Cfg config.Config
	// Ranks lists the mixture members in ascending rank order.
	Ranks []int
	// Weights are the mixture coefficients, aligned with Ranks.
	Weights []float64
	// GenParams holds each member generator's encoded parameters,
	// aligned with Ranks.
	GenParams [][]byte
}

const (
	mixtureMagic = uint64(0x43474d495830) // "CGMIX0"
	// mixtureVersion 2 added the whole-file checksum footer; version 1
	// files (no footer) are rejected rather than trusted unchecked.
	mixtureVersion = uint64(2)
)

// ExportMixture extracts the generator mixture of one cell from a finished
// run as a deployable artifact. Use res.BestRank for the mixture the
// method returns.
func ExportMixture(res *core.Result, rank int) (*MixtureArtifact, error) {
	if rank < 0 || rank >= len(res.Cells) {
		return nil, fmt.Errorf("checkpoint: rank %d out of range for %d cells", rank, len(res.Cells))
	}
	cr := res.Cells[rank]
	if len(cr.MixtureRanks) == 0 {
		return nil, fmt.Errorf("checkpoint: cell %d has an empty mixture", rank)
	}
	if len(cr.MixtureRanks) != len(cr.MixtureWeights) {
		return nil, fmt.Errorf("checkpoint: cell %d mixture ranks/weights length mismatch %d/%d",
			rank, len(cr.MixtureRanks), len(cr.MixtureWeights))
	}
	a := &MixtureArtifact{
		Cfg:       res.Cfg,
		Ranks:     append([]int(nil), cr.MixtureRanks...),
		Weights:   append([]float64(nil), cr.MixtureWeights...),
		GenParams: make([][]byte, len(cr.MixtureRanks)),
	}
	for i, mr := range cr.MixtureRanks {
		if mr < 0 || mr >= len(res.Cells) {
			return nil, fmt.Errorf("checkpoint: mixture member %d out of range", mr)
		}
		a.GenParams[i] = append([]byte(nil), res.Cells[mr].State.GenParams...)
	}
	return a, nil
}

// validate reports the first structural or numeric error in the artifact
// (non-finite generator parameters would sample as NaN pixels).
func (a *MixtureArtifact) validate() error {
	if err := a.Cfg.Validate(); err != nil {
		return err
	}
	if len(a.Ranks) == 0 {
		return fmt.Errorf("checkpoint: mixture artifact has no members")
	}
	if len(a.Weights) != len(a.Ranks) || len(a.GenParams) != len(a.Ranks) {
		return fmt.Errorf("checkpoint: mixture artifact sections misaligned: %d ranks, %d weights, %d param blobs",
			len(a.Ranks), len(a.Weights), len(a.GenParams))
	}
	for _, w := range a.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("checkpoint: mixture weight %g is not a probability", w)
		}
	}
	for i, p := range a.GenParams {
		ms, rest, err := tensor.DecodeMats(p)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d trailing bytes", len(rest))
		}
		if err == nil && !tensor.AllFinite(ms) {
			err = fmt.Errorf("non-finite parameter")
		}
		if err != nil {
			return fmt.Errorf("checkpoint: generator parameters of rank %d: %w", a.Ranks[i], err)
		}
	}
	return nil
}

// Mixture reconstructs the sampleable generator mixture: one generator
// network per member, rebuilt from Cfg and overwritten with the stored
// parameters.
func (a *MixtureArtifact) Mixture() (*core.Mixture, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	gens := make(map[int]*nn.Network, len(a.Ranks))
	for i, r := range a.Ranks {
		// Seed is irrelevant: parameters are overwritten by the decode.
		net := core.BuildGenerator(a.Cfg, tensor.NewRNG(0))
		if err := net.DecodeParams(a.GenParams[i]); err != nil {
			return nil, fmt.Errorf("checkpoint: decoding generator of rank %d: %w", r, err)
		}
		gens[r] = net
	}
	m, err := core.NewMixture(gens)
	if err != nil {
		return nil, err
	}
	copy(m.Weights, a.Weights)
	return m, nil
}

// LatentDim returns the generator latent dimension serving callers must
// sample from.
func (a *MixtureArtifact) LatentDim() int { return a.Cfg.InputNeurons }

// HashMixture returns the hex sha256 of the artifact's serialised form.
// The wire format is deterministic, so the hash of an artifact loaded
// from a file equals the hash of the raw file bytes (HashMixtureBytes) —
// serving replicas and the deploying gateway can compare model identity
// across processes by this string alone.
func HashMixture(a *MixtureArtifact) (string, error) {
	h := sha256.New()
	if err := WriteMixture(h, a); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// HashMixtureBytes hashes an already-serialised artifact (e.g. a .mix
// file's contents) to the same string HashMixture produces for the
// decoded form.
func HashMixtureBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ShardMixture slices the artifact into sub-mixture `shard` of `of`:
// member i is assigned to shard i%of, and the surviving weights are
// renormalised to sum to one. Replicas behind the serving gateway each
// load one shard, so the trained ensemble is distributed across the
// serving tier the way the cells were distributed across the training
// grid. of=1 returns a full copy.
func ShardMixture(a *MixtureArtifact, shard, of int) (*MixtureArtifact, error) {
	if of <= 0 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("checkpoint: shard %d/%d out of range", shard, of)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	if of > len(a.Ranks) {
		return nil, fmt.Errorf("checkpoint: cannot cut %d shards from a %d-member mixture", of, len(a.Ranks))
	}
	out := &MixtureArtifact{Cfg: a.Cfg}
	total := 0.0
	for i := range a.Ranks {
		if i%of != shard {
			continue
		}
		out.Ranks = append(out.Ranks, a.Ranks[i])
		out.Weights = append(out.Weights, a.Weights[i])
		out.GenParams = append(out.GenParams, append([]byte(nil), a.GenParams[i]...))
		total += a.Weights[i]
	}
	if total > 0 {
		for i := range out.Weights {
			out.Weights[i] /= total
		}
	} else {
		// Degenerate zero-weight shard: serve the members uniformly.
		for i := range out.Weights {
			out.Weights[i] = 1 / float64(len(out.Weights))
		}
	}
	return out, nil
}

// WriteMixture serialises the artifact, ending with the whole-file
// checksum footer. The footer is part of the serialised form, so
// HashMixture (which hashes WriteMixture's output) still equals
// HashMixtureBytes of the file contents.
func WriteMixture(w io.Writer, a *MixtureArtifact) error {
	if err := a.validate(); err != nil {
		return err
	}
	return writeWithFooter(w, func(w io.Writer) error { return writeMixtureBody(w, a) })
}

func writeMixtureBody(w io.Writer, a *MixtureArtifact) error {
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
	if err := wU64(mixtureMagic); err != nil {
		return err
	}
	if err := wU64(mixtureVersion); err != nil {
		return err
	}
	cfgJSON, err := a.Cfg.Marshal()
	if err != nil {
		return err
	}
	if err := wBlob(cfgJSON); err != nil {
		return err
	}
	if err := wU64(uint64(len(a.Ranks))); err != nil {
		return err
	}
	for _, r := range a.Ranks {
		if err := wU64(uint64(int64(r))); err != nil {
			return err
		}
	}
	for _, wt := range a.Weights {
		if err := wU64(math.Float64bits(wt)); err != nil {
			return err
		}
	}
	for _, p := range a.GenParams {
		if err := wBlob(p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMixture deserialises an artifact written by WriteMixture. The
// checksum footer is verified over the complete stream before any
// section is decoded.
func ReadMixture(r io.Reader) (*MixtureArtifact, error) {
	body, err := readVerified(r, "mixture artifact")
	if err != nil {
		return nil, err
	}
	return readMixtureBody(body)
}

func readMixtureBody(body []byte) (*MixtureArtifact, error) {
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
	if err != nil || magic != mixtureMagic {
		return nil, fmt.Errorf("checkpoint: not a mixture artifact stream")
	}
	version, err := rU64()
	if err != nil {
		return nil, err
	}
	if version != mixtureVersion {
		return nil, fmt.Errorf("checkpoint: unsupported mixture artifact version %d", version)
	}
	cfgJSON, err := rBlob()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: mixture config section: %w", err)
	}
	cfg, err := config.Unmarshal(cfgJSON)
	if err != nil {
		return nil, err
	}
	// Validate before NumCells is trusted: a hostile config could
	// otherwise declare an enormous grid and drive the allocations below.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nMembers, err := rU64()
	if err != nil {
		return nil, err
	}
	if nMembers == 0 || nMembers > uint64(cfg.NumCells()) {
		return nil, fmt.Errorf("checkpoint: implausible mixture size %d for a %d-cell grid",
			nMembers, cfg.NumCells())
	}
	a := &MixtureArtifact{
		Cfg:       cfg,
		Ranks:     make([]int, nMembers),
		Weights:   make([]float64, nMembers),
		GenParams: make([][]byte, nMembers),
	}
	for i := range a.Ranks {
		v, err := rU64()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: mixture ranks: %w", err)
		}
		a.Ranks[i] = int(int64(v))
	}
	for i := range a.Weights {
		v, err := rU64()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: mixture weights: %w", err)
		}
		a.Weights[i] = math.Float64frombits(v)
	}
	for i := range a.GenParams {
		if a.GenParams[i], err = rBlob(); err != nil {
			return nil, fmt.Errorf("checkpoint: mixture member %d params: %w", i, err)
		}
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last mixture member", br.Len())
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// SaveMixtureFile writes the artifact crash-consistently: temp file,
// fsync, rename, parent-directory fsync (atomic.go).
func SaveMixtureFile(path string, a *MixtureArtifact) error {
	return atomicWriteFile(OS{}, path, func(f File) error { return WriteMixture(f, a) })
}

// LoadMixtureFile reads a mixture artifact from disk.
func LoadMixtureFile(path string) (*MixtureArtifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return ReadMixture(f)
}
