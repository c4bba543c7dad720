package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/serve"
)

// deployVariant derives an artifact with a different content hash than
// the base (half the mixture members, renormalized).
func deployVariant(tb testing.TB) *checkpoint.MixtureArtifact {
	tb.Helper()
	a := trainedArtifact(tb)
	if len(a.Ranks) < 2 {
		tb.Skip("need >= 2 mixture members to derive a distinct artifact")
	}
	sh, err := checkpoint.ShardMixture(a, 0, 2)
	if err != nil {
		tb.Fatalf("ShardMixture: %v", err)
	}
	return sh
}

func newDeployer(tb testing.TB, g *Gateway, path string) *Deployer {
	tb.Helper()
	d, err := NewDeployer(DeployOptions{
		Path:           path,
		Model:          "digits",
		ConfirmTimeout: 5 * time.Second,
	}, g.Table(), g.Metrics())
	if err != nil {
		tb.Fatalf("NewDeployer: %v", err)
	}
	return d
}

func TestDeployerRollsOutNewArtifact(t *testing.T) {
	reps := startReplicas(t, 2)
	g, ts := newTestGateway(t, reps, Options{})
	variant := deployVariant(t)
	wantHash := artifactHash(t, variant)

	path := filepath.Join(t.TempDir(), "mixture.bin")
	d := newDeployer(t, g, path)

	// Nothing exported yet: a missing artifact is not an error.
	if n, err := d.CheckOnce(context.Background()); n != 0 || err != nil {
		t.Fatalf("CheckOnce on missing file = (%d, %v), want (0, nil)", n, err)
	}

	if err := checkpoint.SaveMixtureFile(path, variant); err != nil {
		t.Fatalf("SaveMixtureFile: %v", err)
	}
	n, err := d.CheckOnce(context.Background())
	if err != nil {
		t.Fatalf("CheckOnce: %v", err)
	}
	if n != len(reps) {
		t.Fatalf("CheckOnce updated %d replicas, want %d", n, len(reps))
	}

	// Every replica now serves the pushed hash, and the deployer only
	// counted the flip after the replica's own health report carried it.
	for i, rep := range reps {
		sts := rep.Registry().Statuses()
		if len(sts) != 1 || sts[0].Hash != wantHash {
			t.Fatalf("replica %d registry hash = %+v, want %s", i, sts, wantHash)
		}
		st, ok := g.Table().Replicas()[i].ModelStatus("digits")
		if !ok || st.Hash != wantHash {
			t.Fatalf("replica %d health-confirmed hash = %q, want %s", i, st.Hash, wantHash)
		}
	}
	text := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, "gateway_reloads_total"); got != float64(len(reps)) {
		t.Fatalf("gateway_reloads_total = %g, want %d", got, len(reps))
	}

	// Idempotent: the same artifact is not pushed twice.
	if n, err := d.CheckOnce(context.Background()); n != 0 || err != nil {
		t.Fatalf("repeat CheckOnce = (%d, %v), want (0, nil)", n, err)
	}

	// The new model serves traffic through the gateway.
	code, out := postGenerate(t, ts.URL, serve.GenerateRequest{Model: "digits", N: 1}, "")
	if code != http.StatusOK || out.Hash != wantHash {
		t.Fatalf("post-rollout generate = %d hash %q, want 200 %s", code, out.Hash, wantHash)
	}
}

// TestDeployerCatchesUpDownReplica: a replica that is dead during a
// rollout is not silently skipped forever — the push fails, the failure
// is counted, and a later sweep catches the replica up once it returns.
func TestDeployerCatchesUpDownReplica(t *testing.T) {
	reps := startReplicas(t, 2)
	g, ts := newTestGateway(t, reps, Options{})
	variant := deployVariant(t)
	wantHash := artifactHash(t, variant)

	path := filepath.Join(t.TempDir(), "mixture.bin")
	if err := checkpoint.SaveMixtureFile(path, variant); err != nil {
		t.Fatalf("SaveMixtureFile: %v", err)
	}
	d := newDeployer(t, g, path)

	reps[1].Kill()
	n, err := d.CheckOnce(context.Background())
	if n != 1 {
		t.Fatalf("CheckOnce with one dead replica updated %d, want 1", n)
	}
	if err == nil {
		t.Fatal("CheckOnce with one dead replica returned nil error")
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "gateway_reload_failures_total"); got < 1 {
		t.Fatalf("gateway_reload_failures_total = %g, want >= 1", got)
	}

	reps[1].Revive()
	if n, err := d.CheckOnce(context.Background()); n != 1 || err != nil {
		t.Fatalf("catch-up CheckOnce = (%d, %v), want (1, nil)", n, err)
	}
	sts := reps[1].Registry().Statuses()
	if len(sts) != 1 || sts[0].Hash != wantHash {
		t.Fatalf("revived replica hash = %+v, want %s", sts, wantHash)
	}
}

// TestDeployerSkipsTornArtifact: an undecodable (torn) artifact on disk
// must never reach a replica and must not kill the watch loop — the
// deployer counts it, logs it once per distinct bad content, and picks
// up the valid rewrite on a later check.
func TestDeployerSkipsTornArtifact(t *testing.T) {
	reps := startReplicas(t, 2)
	g, ts := newTestGateway(t, reps, Options{})
	variant := deployVariant(t)
	wantHash := artifactHash(t, variant)

	path := filepath.Join(t.TempDir(), "mixture.bin")
	var buf bytes.Buffer
	if err := checkpoint.WriteMixture(&buf, variant); err != nil {
		t.Fatalf("WriteMixture: %v", err)
	}
	torn := buf.Bytes()[:buf.Len()-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("writing torn artifact: %v", err)
	}

	var logLines atomic.Int64
	d, err := NewDeployer(DeployOptions{
		Path:           path,
		Model:          "digits",
		ConfirmTimeout: 5 * time.Second,
		Logf:           func(string, ...interface{}) { logLines.Add(1) },
	}, g.Table(), g.Metrics())
	if err != nil {
		t.Fatalf("NewDeployer: %v", err)
	}

	// Three polls over the same torn content: skipped without error every
	// time, counted every time, logged once.
	for i := 0; i < 3; i++ {
		if n, err := d.CheckOnce(context.Background()); n != 0 || err != nil {
			t.Fatalf("CheckOnce %d on torn artifact = (%d, %v), want (0, nil)", i, n, err)
		}
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "gateway_bad_artifacts_total"); got != 3 {
		t.Fatalf("gateway_bad_artifacts_total = %g, want 3", got)
	}
	if got := logLines.Load(); got != 1 {
		t.Fatalf("torn artifact logged %d times, want once per distinct content", got)
	}
	for i, rep := range reps {
		for _, st := range rep.Registry().Statuses() {
			if st.Hash == wantHash {
				t.Fatalf("replica %d received the variant hash from a torn artifact", i)
			}
		}
	}

	// A valid rewrite recovers on the next poll, no restart needed.
	if err := checkpoint.SaveMixtureFile(path, variant); err != nil {
		t.Fatalf("SaveMixtureFile: %v", err)
	}
	if n, err := d.CheckOnce(context.Background()); n != len(reps) || err != nil {
		t.Fatalf("CheckOnce after rewrite = (%d, %v), want (%d, nil)", n, err, len(reps))
	}
	sts := reps[0].Registry().Statuses()
	if len(sts) != 1 || sts[0].Hash != wantHash {
		t.Fatalf("post-recovery replica hash = %+v, want %s", sts, wantHash)
	}
}

// TestDeployerSkipsNonFiniteArtifact: a checksum-valid artifact whose
// generator parameters contain NaN (a diverged run's export) must stop at
// the deployer's decode gate — counted as bad, pushed to no replica.
func TestDeployerSkipsNonFiniteArtifact(t *testing.T) {
	reps := startReplicas(t, 2)
	g, ts := newTestGateway(t, reps, Options{})
	before := reps[0].Registry().Statuses()

	var buf bytes.Buffer
	if err := checkpoint.WriteMixture(&buf, deployVariant(t)); err != nil {
		t.Fatalf("WriteMixture: %v", err)
	}
	// Overwrite the last generator parameter with NaN and re-seal the
	// sha256 footer (8-byte magic + digest).
	data := buf.Bytes()
	body := data[:len(data)-8-sha256.Size]
	binary.LittleEndian.PutUint64(body[len(body)-8:], math.Float64bits(math.NaN()))
	sum := sha256.Sum256(body)
	copy(data[len(data)-sha256.Size:], sum[:])
	path := filepath.Join(t.TempDir(), "mixture.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing poisoned artifact: %v", err)
	}

	d := newDeployer(t, g, path)
	if n, err := d.CheckOnce(context.Background()); n != 0 || err != nil {
		t.Fatalf("CheckOnce on NaN-parameter artifact = (%d, %v), want (0, nil)", n, err)
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "gateway_bad_artifacts_total"); got != 1 {
		t.Fatalf("gateway_bad_artifacts_total = %g, want 1", got)
	}
	for i, rep := range reps {
		after := rep.Registry().Statuses()
		if len(after) != len(before) || after[0].Hash != before[0].Hash || after[0].Version != before[0].Version {
			t.Fatalf("replica %d changed model after a refused artifact: %+v", i, after)
		}
	}
}

// TestDeployRolloutUnderTraffic is the hot-reload half of the e2e
// acceptance: a new mixture rolls across the fleet while clients hammer
// the gateway, with zero client-visible failures, and afterwards the new
// hash is what serves.
func TestDeployRolloutUnderTraffic(t *testing.T) {
	reps := startReplicas(t, 3)
	g, ts := newTestGateway(t, reps, Options{})
	variant := deployVariant(t)
	wantHash := artifactHash(t, variant)
	baseHash := artifactHash(t, trainedArtifact(t))
	if wantHash == baseHash {
		t.Fatal("variant artifact hash equals base hash; rollout would be a no-op")
	}

	path := filepath.Join(t.TempDir(), "mixture.bin")
	if err := checkpoint.SaveMixtureFile(path, variant); err != nil {
		t.Fatalf("SaveMixtureFile: %v", err)
	}
	d := newDeployer(t, g, path)

	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures int
		served   = map[string]int{}
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, out := postGenerate(t, ts.URL, serve.GenerateRequest{Model: "digits", N: 1}, "")
				mu.Lock()
				if code != http.StatusOK {
					failures++
				} else {
					served[out.Hash]++
				}
				mu.Unlock()
			}
		}()
	}

	n, err := d.CheckOnce(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("CheckOnce under traffic: %v", err)
	}
	if n != len(reps) {
		t.Fatalf("CheckOnce updated %d replicas, want %d", n, len(reps))
	}
	if failures != 0 {
		t.Fatalf("%d client-visible failures during rollout", failures)
	}
	mu.Lock()
	defer mu.Unlock()
	for h := range served {
		if h != baseHash && h != wantHash {
			t.Fatalf("served unknown hash %q during rollout", h)
		}
	}

	// Post-rollout traffic serves only the new hash.
	for i := 0; i < 10; i++ {
		code, out := postGenerate(t, ts.URL, serve.GenerateRequest{Model: "digits", N: 1}, "")
		if code != http.StatusOK || out.Hash != wantHash {
			t.Fatalf("post-rollout generate = %d hash %q, want 200 %s", code, out.Hash, wantHash)
		}
	}
}
