package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cellgan/internal/core"
	"cellgan/internal/tensor"
)

func trainedArtifact(t *testing.T) (*core.Result, *MixtureArtifact) {
	t.Helper()
	res, err := core.RunSequential(tinyCfg(2), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExportMixture(res, res.BestRank)
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

func TestMixtureRoundTripBitExact(t *testing.T) {
	_, a := trainedArtifact(t)
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := ReadMixture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != a.Cfg {
		t.Fatal("config changed in transit")
	}
	if len(got.Ranks) != len(a.Ranks) {
		t.Fatalf("ranks %d want %d", len(got.Ranks), len(a.Ranks))
	}
	for i := range a.Ranks {
		if got.Ranks[i] != a.Ranks[i] {
			t.Fatalf("rank %d changed in transit", i)
		}
		if math.Float64bits(got.Weights[i]) != math.Float64bits(a.Weights[i]) {
			t.Fatalf("weight %d changed in transit", i)
		}
		if !bytes.Equal(got.GenParams[i], a.GenParams[i]) {
			t.Fatalf("generator params %d changed in transit", i)
		}
	}
	// Re-serialising the decoded artifact must reproduce the stream
	// bit-for-bit.
	var buf2 bytes.Buffer
	if err := WriteMixture(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("serialisation is not bit-stable across a round trip")
	}
}

func TestMixtureArtifactSamplesMatchResult(t *testing.T) {
	// The artifact's rebuilt mixture must be the same generative model as
	// the one reconstructed directly from the run result: identical
	// samples under identical RNG streams.
	res, a := trainedArtifact(t)
	direct, err := res.MixtureFor(res.BestRank)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := a.Mixture()
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Sample(16, a.LatentDim(), tensor.NewRNG(7))
	got := loaded.Sample(16, a.LatentDim(), tensor.NewRNG(7))
	if !got.Equal(want) {
		t.Fatal("artifact mixture samples diverge from the run's mixture")
	}
}

func TestMixtureSaveLoadFile(t *testing.T) {
	_, a := trainedArtifact(t)
	path := filepath.Join(t.TempDir(), "best.mix")
	if err := SaveMixtureFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMixtureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != a.Cfg || len(got.Ranks) != len(a.Ranks) {
		t.Fatal("artifact changed across file round trip")
	}
	if _, err := got.Mixture(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMixtureRejectsCorruptStreams(t *testing.T) {
	_, a := trainedArtifact(t)
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadMixture(bytes.NewReader(good[:8])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := ReadMixture(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestHashMixtureMatchesBytesAndIsStable(t *testing.T) {
	_, a := trainedArtifact(t)
	h1, err := HashMixture(a)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashMixture(a)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	if hb := HashMixtureBytes(buf.Bytes()); hb != h1 {
		t.Fatalf("byte hash %s != artifact hash %s", hb, h1)
	}
	// Any parameter perturbation must change the hash.
	b := *a
	b.GenParams = append([][]byte(nil), a.GenParams...)
	b.GenParams[0] = append([]byte(nil), a.GenParams[0]...)
	b.GenParams[0][len(b.GenParams[0])-8] ^= 0x01 // low mantissa byte of the last parameter
	hm, err := HashMixture(&b)
	if err != nil {
		t.Fatal(err)
	}
	if hm == h1 {
		t.Fatal("hash insensitive to parameter change")
	}
}

func TestShardMixture(t *testing.T) {
	_, a := trainedArtifact(t)
	if len(a.Ranks) < 2 {
		t.Skipf("mixture too small to shard: %d members", len(a.Ranks))
	}
	of := 2
	seen := make(map[int]bool)
	totalMembers := 0
	for s := 0; s < of; s++ {
		sh, err := ShardMixture(a, s, of)
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.Ranks) == 0 {
			t.Fatalf("shard %d is empty", s)
		}
		sum := 0.0
		for _, w := range sh.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("shard %d weights sum %g, want 1", s, sum)
		}
		for _, r := range sh.Ranks {
			if seen[r] {
				t.Fatalf("rank %d appears in two shards", r)
			}
			seen[r] = true
		}
		totalMembers += len(sh.Ranks)
		// A shard must itself be a loadable, sampleable artifact.
		if _, err := sh.Mixture(); err != nil {
			t.Fatalf("shard %d does not rebuild: %v", s, err)
		}
	}
	if totalMembers != len(a.Ranks) {
		t.Fatalf("shards cover %d members, mixture has %d", totalMembers, len(a.Ranks))
	}

	if _, err := ShardMixture(a, 2, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := ShardMixture(a, 0, 0); err == nil {
		t.Fatal("zero shard count accepted")
	}
	if _, err := ShardMixture(a, 0, len(a.Ranks)+1); err == nil {
		t.Fatal("more shards than members accepted")
	}
	full, err := ShardMixture(a, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Ranks) != len(a.Ranks) {
		t.Fatalf("1-shard copy has %d members, want %d", len(full.Ranks), len(a.Ranks))
	}
}

func TestExportMixtureValidation(t *testing.T) {
	res, _ := trainedArtifact(t)
	if _, err := ExportMixture(res, -1); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := ExportMixture(res, len(res.Cells)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// poisonedMixtureBytes serialises a, then overwrites the last parameter of
// the last member with bad and re-seals the checksum footer — the bytes a
// diverged run would have exported before validate scanned parameters.
func poisonedMixtureBytes(t *testing.T, a *MixtureArtifact, bad float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMixture(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	body := data[:len(data)-footerLen]
	binary.LittleEndian.PutUint64(body[len(body)-8:], math.Float64bits(bad))
	sum := sha256.Sum256(body)
	copy(data[len(data)-sha256.Size:], sum[:])
	return data
}

// TestMixtureRejectsNonFiniteParameters: an artifact whose generator
// parameters contain NaN/Inf passes every structural check and would emit
// NaN pixels; it must be refused on read, write, hash and reconstruction,
// with the offending rank named.
func TestMixtureRejectsNonFiniteParameters(t *testing.T) {
	_, a := trainedArtifact(t)
	lastRank := a.Ranks[len(a.Ranks)-1]
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := ReadMixture(bytes.NewReader(poisonedMixtureBytes(t, a, bad)))
		if err == nil {
			t.Fatalf("ReadMixture accepted a %g generator parameter", bad)
		}
		if want := "rank " + strconv.Itoa(lastRank); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}

	// The same artifact built in memory (not via the wire).
	b := *a
	b.GenParams = append([][]byte(nil), a.GenParams...)
	p := append([]byte(nil), a.GenParams[0]...)
	binary.LittleEndian.PutUint64(p[len(p)-8:], math.Float64bits(math.NaN()))
	b.GenParams[0] = p
	if err := WriteMixture(&bytes.Buffer{}, &b); err == nil {
		t.Fatal("WriteMixture serialised a NaN generator parameter")
	}
	if _, err := HashMixture(&b); err == nil {
		t.Fatal("HashMixture hashed a NaN generator parameter")
	}
	if _, err := b.Mixture(); err == nil {
		t.Fatal("Mixture() reconstructed a NaN generator")
	}
}
