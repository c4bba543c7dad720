package gateway

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeReplica serves h on loopback as a gateway's only replica.
func fakeReplica(t *testing.T, h http.HandlerFunc) (*Gateway, *httptest.Server) {
	t.Helper()
	rep := httptest.NewServer(h)
	t.Cleanup(rep.Close)
	g, err := New(Options{Replicas: []string{rep.URL}, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return g, ts
}

// TestProxyChunkedReplica: a replica that streams its answer in chunks,
// with no Content-Length, is proxied byte for byte, and the gateway's
// own response declares the length.
func TestProxyChunkedReplica(t *testing.T) {
	want := []byte(`{"data":"` + strings.Repeat("QUJD", 50000) + `"}` + "\n")
	_, ts := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		for p := want; len(p) > 0; {
			k := min(len(p), 4096)
			w.Write(p[:k])
			w.(http.Flusher).Flush()
			p = p[k:]
		}
	})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("status %d, %d bytes proxied of %d", resp.StatusCode, len(got), len(want))
	}
	if resp.ContentLength != int64(len(want)) || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("gateway response: Content-Length %d, Content-Type %q", resp.ContentLength, resp.Header.Get("Content-Type"))
	}
}

// TestProxyShortBody: a replica that declares a longer body than it
// sends, then closes the connection, gives a retryable forward error at
// once, and the client a 502 instead of a short body.
func TestProxyShortBody(t *testing.T) {
	g, ts := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"short\":")
		buf.Flush()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res := g.forward(ctx, g.table.Replicas()[0], []byte(`{}`))
	if res.err == nil || !res.retryable() || ctx.Err() != nil {
		t.Fatalf("forward: err %v, retryable %v, context %v", res.err, res.retryable(), ctx.Err())
	}
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadGateway || strings.Contains(string(body), "short") {
		t.Fatalf("client got %d: %s", resp.StatusCode, body)
	}
}

// TestReadBodyFallback: a declared length the gateway does not trust, or
// none at all, is read by growing a buffer to what the body holds.
func TestReadBodyFallback(t *testing.T) {
	for _, n := range []int64{maxPresizedBody + 1, -1} {
		resp := &http.Response{ContentLength: n, Body: io.NopCloser(strings.NewReader(`{"n":1}`))}
		got, err := readBody(resp)
		if err != nil || string(got) != `{"n":1}` {
			t.Fatalf("Content-Length %d: %q, %v", n, got, err)
		}
	}
	resp := &http.Response{ContentLength: 3, Body: io.NopCloser(strings.NewReader(`{"n":1}`))}
	if got, err := readBody(resp); err != nil || string(got) != `{"n` {
		t.Fatalf("presized read: %q, %v", got, err)
	}
}
