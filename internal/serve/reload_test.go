package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellgan/internal/checkpoint"
)

// variantArtifact returns a second artifact with a different content
// hash: the even shard of the trained mixture. Tests that alternate the
// two can tell by hash alone which model a response came from.
func variantArtifact(tb testing.TB) *checkpoint.MixtureArtifact {
	tb.Helper()
	a := trainedArtifact(tb)
	if len(a.Ranks) < 2 {
		tb.Skipf("mixture too small for a distinguishable variant: %d members", len(a.Ranks))
	}
	v, err := checkpoint.ShardMixture(a, 0, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func artifactHash(tb testing.TB, a *checkpoint.MixtureArtifact) string {
	tb.Helper()
	h, err := checkpoint.HashMixture(a)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

func getHealth(tb testing.TB, url string) (int, HealthStatus) {
	tb.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var st HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, st
}

// TestHealthzReportsModelIdentity verifies the gateway-facing health
// signal: /healthz must name each loaded model with its version and
// artifact content hash plus the queue depth, not just answer 200.
func TestHealthzReportsModelIdentity(t *testing.T) {
	reg, ts := newTestServer(t, EngineConfig{})
	code, st := getHealth(t, ts.URL)
	if code != http.StatusOK || st.Status != "ok" {
		t.Fatalf("healthz %d %q", code, st.Status)
	}
	if len(st.Models) != 1 || st.Models[0].Name != "digits" || st.Models[0].Version != 1 {
		t.Fatalf("models: %+v", st.Models)
	}
	if want := artifactHash(t, trainedArtifact(t)); st.Models[0].Hash != want {
		t.Fatalf("healthz hash %q, want artifact hash %q", st.Models[0].Hash, want)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("idle queue depth %d", st.QueueDepth)
	}

	// After a reload the reported identity must flip to the new artifact.
	v := variantArtifact(t)
	if err := reg.Load("digits", v); err != nil {
		t.Fatal(err)
	}
	_, st = getHealth(t, ts.URL)
	if st.Models[0].Version != 2 || st.Models[0].Hash != artifactHash(t, v) {
		t.Fatalf("post-reload identity: %+v", st.Models[0])
	}
}

// TestReloadEndpoint pushes a serialised artifact over /v1/reload and
// confirms the version bump and hash flip — the replica half of the
// train→serve deployment loop.
func TestReloadEndpoint(t *testing.T) {
	_, ts := newTestServer(t, EngineConfig{})
	v := variantArtifact(t)
	var buf bytes.Buffer
	if err := checkpoint.WriteMixture(&buf, v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/reload?model=digits", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	var rr ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Model != "digits" || rr.Version != 2 || rr.Hash != artifactHash(t, v) {
		t.Fatalf("reload response: %+v", rr)
	}
	// Requests now serve the new identity.
	if code, gr := postGenerate(t, ts.URL, GenerateRequest{N: 1}); code != http.StatusOK || gr.Version != 2 || gr.Hash != rr.Hash {
		t.Fatalf("post-reload generate: code %d %+v", code, gr)
	}
}

func TestReloadEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, EngineConfig{})
	if resp, err := http.Get(ts.URL + "/v1/reload?model=digits"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET reload: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+"/v1/reload", "application/octet-stream", bytes.NewReader([]byte{1})); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("missing model accepted: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+"/v1/reload?model=digits", "application/octet-stream", bytes.NewReader([]byte("garbage"))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage artifact accepted: %d", resp.StatusCode)
		}
	}
	// A rejected push must not disturb the serving model.
	if code, gr := postGenerate(t, ts.URL, GenerateRequest{N: 1}); code != http.StatusOK || gr.Version != 1 {
		t.Fatalf("model disturbed by bad reload: code %d %+v", code, gr)
	}
}

// nanArtifactBytes serialises a, then overwrites the last generator
// parameter with NaN and re-seals the sha256 footer (8-byte magic +
// digest): structurally perfect bytes that would serve NaN pixels.
func nanArtifactBytes(tb testing.TB, a *checkpoint.MixtureArtifact) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := checkpoint.WriteMixture(&buf, a); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	body := data[:len(data)-8-sha256.Size]
	binary.LittleEndian.PutUint64(body[len(body)-8:], math.Float64bits(math.NaN()))
	sum := sha256.Sum256(body)
	copy(data[len(data)-sha256.Size:], sum[:])
	return data
}

// TestReloadRejectsNonFiniteParameters: a checksum-valid artifact whose
// generator parameters contain NaN must fail the reload and leave the old
// model serving.
func TestReloadRejectsNonFiniteParameters(t *testing.T) {
	_, ts := newTestServer(t, EngineConfig{})
	resp, err := http.Post(ts.URL+"/v1/reload?model=digits", "application/octet-stream",
		bytes.NewReader(nanArtifactBytes(t, variantArtifact(t))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN-parameter artifact reload status %d, want 400", resp.StatusCode)
	}
	code, gr := postGenerate(t, ts.URL, GenerateRequest{N: 2})
	if code != http.StatusOK || gr.Version != 1 {
		t.Fatalf("model disturbed by refused reload: code %d %+v", code, gr)
	}
	for _, row := range gr.Samples {
		for _, v := range row {
			if math.IsNaN(v) {
				t.Fatal("serving NaN pixels after a refused reload")
			}
		}
	}
}

// TestConcurrentReloadNoTornSwap hammers /v1/generate while the model is
// reloaded many times, alternating two artifacts with distinct hashes.
// No request may fail, and every response's (version, hash) pair must be
// one of the pairs that actually existed — version v odd ⇒ hash of
// artifact A, even ⇒ hash of artifact B. A torn swap (version from one
// model, hash or dims from another) fails the pairing check.
func TestConcurrentReloadNoTornSwap(t *testing.T) {
	a := trainedArtifact(t)
	b := variantArtifact(t)
	hashA, hashB := artifactHash(t, a), artifactHash(t, b)
	reg, ts := newTestServer(t, EngineConfig{Workers: 2, QueueSize: 1024})

	const reloads = 20
	var maxVersion atomic.Uint64
	maxVersion.Store(1)
	stop := make(chan struct{})
	reloadDone := make(chan error, 1)
	go func() {
		defer close(stop)
		for i := 0; i < reloads; i++ {
			art := b
			if i%2 == 1 {
				art = a
			}
			if err := reg.Load("digits", art); err != nil {
				reloadDone <- err
				return
			}
			maxVersion.Store(uint64(i + 2))
			time.Sleep(2 * time.Millisecond)
		}
		reloadDone <- nil
	}()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, gr := postGenerate(t, ts.URL, GenerateRequest{N: 2})
				if code != http.StatusOK {
					errs <- &reloadRaceError{code: code}
					return
				}
				want := hashA
				if gr.Version%2 == 0 {
					want = hashB
				}
				if gr.Hash != want {
					errs <- &reloadRaceError{version: gr.Version, hash: gr.Hash, want: want}
					return
				}
				if gr.Version > maxVersion.Load() || gr.Version < 1 {
					errs <- &reloadRaceError{version: gr.Version}
					return
				}
				if gr.Dim != 784 || len(gr.Samples) != 2 {
					errs <- &reloadRaceError{version: gr.Version, hash: "bad shape"}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-reloadDone; err != nil {
		t.Fatal(err)
	}
	// The final identity must be the last loaded artifact.
	_, st := getHealth(t, ts.URL)
	if st.Models[0].Version != reloads+1 {
		t.Fatalf("final version %d, want %d", st.Models[0].Version, reloads+1)
	}
}

type reloadRaceError struct {
	code       int
	version    uint64
	hash, want string
}

func (e *reloadRaceError) Error() string {
	if e.code != 0 {
		return "generate failed with status " + http.StatusText(e.code)
	}
	return "torn swap: version " + itoa(e.version) + " hash " + e.hash + " want " + e.want
}

func itoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestInFlightRequestsDrainAcrossSwap: requests queued before a reload
// must all complete successfully — the worker finishes the batch it
// gathered on the model it gathered it with, then picks up the new
// model. White-box so the swap lands while requests sit in the queue.
func TestInFlightRequestsDrainAcrossSwap(t *testing.T) {
	// A long BatchWait keeps the first batch open while we enqueue and
	// swap, guaranteeing requests are genuinely in flight across it.
	e, err := NewEngine("digits", trainedArtifact(t), EngineConfig{Workers: 1, BatchWait: 50 * time.Millisecond, QueueSize: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	outDim := e.Model().OutputDim

	const inFlight = 16
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := e.Generate(context.Background(), 1)
			if err != nil {
				errs <- err
				return
			}
			if out.Rows != 1 || out.Cols != outDim {
				errs <- &reloadRaceError{hash: "bad drain shape"}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let requests reach the queue
	if err := e.load("digits", variantArtifact(t)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if e.Model().Version != 2 {
		t.Fatalf("swap lost: version %d", e.Model().Version)
	}
}
