package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"cellgan/internal/dataset"
	"cellgan/internal/tensor"
)

// encodeResponse is the plain encoding of a response: a
// GenerateResponse built from out, base64 payload included, run through
// json.NewEncoder (HTML escaping on, trailing newline). It is the
// writer's byte-for-byte oracle.
func encodeResponse(m *Model, out *tensor.Mat, encoding string) ([]byte, error) {
	resp := GenerateResponse{Model: m.Name, Version: m.Version, Hash: m.Hash, N: out.Rows, Dim: out.Cols, Encoding: encoding}
	switch encoding {
	case "float":
		for i := 0; i < out.Rows; i++ {
			resp.Samples = append(resp.Samples, out.Row(i))
		}
	case "base64":
		raw := make([]byte, 8*len(out.Data))
		for i, v := range out.Data {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		resp.Data = base64.StdEncoding.EncodeToString(raw)
	case "pgm":
		side, _ := pgmSide(out.Cols)
		for i := 0; i < out.Rows; i++ {
			var b strings.Builder
			if err := dataset.WritePGM(&b, out.Row(i), side); err != nil {
				return nil, err
			}
			resp.PGM = append(resp.PGM, b.String())
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

func floatBytes(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FuzzGenerateResponse holds the response writer to encoding/json over
// arbitrary model identities and float bits, in all three encodings: the
// same bytes, or, where the float encoding meets a value JSON cannot
// carry, the same error.
func FuzzGenerateResponse(f *testing.F) {
	f.Add("digits", "9f86d081884c7d65", uint64(1), uint8(2), floatBytes(0.25, -0.5, 1, -1, 0.1234567890123, -0.999))
	f.Add("<a&b>", "", uint64(7), uint8(1), floatBytes(math.Copysign(0, -1), 0, 5e-324, -2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0)))
	f.Add("line\u2028sep\u2029", "h\"a\\sh\n", uint64(math.MaxUint64), uint8(3), floatBytes(1e21, math.Nextafter(1e21, 0), -1e21, 1e-7, 1.5e-9, 123456789e-300, 1e300, -3e-10, 0.5))
	f.Add("bad\xffutf8\x01", "\xc3", uint64(0), uint8(1), floatBytes(math.NaN(), 0.5, 0.25, -0.75))
	f.Add("inf", "x", uint64(2), uint8(2), floatBytes(0.5, math.Inf(1), math.Inf(-1), 0.5))
	f.Fuzz(func(t *testing.T, name, hash string, version uint64, rows uint8, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		r := 1 + int(rows)%4
		if len(vals) < r {
			return
		}
		m := &Model{Name: name, Version: version, Hash: hash}
		cols := len(vals) / r
		side := int(math.Sqrt(float64(cols)))
		for _, c := range []struct {
			encoding string
			out      *tensor.Mat
		}{
			{"float", &tensor.Mat{Rows: r, Cols: cols, Data: vals[:r*cols]}},
			{"base64", &tensor.Mat{Rows: r, Cols: cols, Data: vals[:r*cols]}},
			{"pgm", &tensor.Mat{Rows: r, Cols: side * side, Data: vals[:r*side*side]}},
		} {
			want, wantErr := encodeResponse(m, c.out, c.encoding)
			got, err := m.appendResponse(nil, c.out, c.encoding)
			switch {
			case wantErr != nil || err != nil:
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, encoding/json's %v", c.encoding, err, wantErr)
				}
			case !bytes.Equal(got, want):
				t.Fatalf("%s: writer\n%q\nencoding/json\n%q", c.encoding, got, want)
			}
		}
	})
}

// discardResponse is an http.ResponseWriter that keeps only the status.
type discardResponse struct {
	h      http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.status = code }

// TestGenerateResponseAllocs: a /v1/generate request allocates the same
// number of times whatever its sample count — the response is written
// into one pooled buffer, with no per-row or per-value garbage — for the
// base64 and the float encoding. The collector is paused while counting:
// a GC empties sync.Pool, and on this test's small heap a bulk request's
// rows alone trigger one, so the count would measure the heap's size.
func TestGenerateResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	reg := NewRegistry(EngineConfig{Workers: 1, BatchWait: -1}, nil)
	defer reg.Close()
	if err := reg.Load("digits", trainedArtifact(t)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, 0)
	allocs := func(body string) float64 {
		rd := strings.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/generate", nil)
		req.Body = io.NopCloser(rd)
		w := &discardResponse{h: http.Header{}}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			w.status = http.StatusOK
			s.handleGenerate(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", body, w.status)
			}
		})
	}
	for _, enc := range []string{"base64", "float"} {
		one := allocs(`{"n":1,"encoding":"` + enc + `"}`)
		bulk := allocs(`{"n":256,"encoding":"` + enc + `"}`)
		t.Logf("%s: %.0f allocs at n = 1, %.0f at n = 256", enc, one, bulk)
		if bulk > one {
			t.Errorf("%s: %.0f allocs per request at n = 256, %.0f at n = 1: allocations grow with n", enc, bulk, one)
		}
	}
}
