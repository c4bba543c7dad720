package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultRequestTimeout bounds one /generate request end to end (queueing
// plus forward passes).
const DefaultRequestTimeout = 30 * time.Second

// maxGenerateBody bounds a /generate request body.
const maxGenerateBody = 1 << 20

// Server is the HTTP front of a model registry.
type Server struct {
	reg     *Registry
	timeout time.Duration
	mux     *http.ServeMux
	// draining flips health to 503 ahead of connection shutdown so load
	// balancers stop routing here while in-flight requests finish.
	draining atomic.Bool
}

// NewServer returns a server over reg. requestTimeout bounds each
// /generate request; zero selects DefaultRequestTimeout.
func NewServer(reg *Registry, requestTimeout time.Duration) *Server {
	if requestTimeout <= 0 {
		requestTimeout = DefaultRequestTimeout
	}
	s := &Server{reg: reg, timeout: requestTimeout, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/generate", s.handleGenerate)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/modelz", s.handleModelz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining marks the server as draining (health checks fail, new
// generate requests are refused with 503). Call before http.Server
// Shutdown so upstream balancers divert traffic first.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// GenerateRequest is the body of POST /v1/generate.
type GenerateRequest struct {
	// Model names the registry entry; may be empty when exactly one model
	// is loaded.
	Model string `json:"model,omitempty"`
	// N is the number of samples to generate (default 1).
	N int `json:"n,omitempty"`
	// Encoding selects the sample representation: "float" (default,
	// JSON arrays), "base64" (row-major little-endian float64), or "pgm"
	// (plain-text PGM images, square outputs only).
	Encoding string `json:"encoding,omitempty"`
}

// GenerateResponse is the body of a successful generate call.
type GenerateResponse struct {
	Model    string      `json:"model"`
	Version  uint64      `json:"version"`
	Hash     string      `json:"hash,omitempty"`
	N        int         `json:"n"`
	Dim      int         `json:"dim"`
	Encoding string      `json:"encoding"`
	Samples  [][]float64 `json:"samples,omitempty"`
	Data     string      `json:"data,omitempty"`
	PGM      []string    `json:"pgm,omitempty"`
}

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var req GenerateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGenerateBody))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.N == 0 {
		req.N = 1
	}
	if req.N < 0 || req.N > MaxSamplesPerRequest {
		httpError(w, http.StatusBadRequest, "n must be in [1,%d]", MaxSamplesPerRequest)
		return
	}
	encoding := strings.ToLower(req.Encoding)
	if encoding == "" {
		encoding = "float"
	}
	switch encoding {
	case "float", "base64", "pgm":
	default:
		httpError(w, http.StatusBadRequest, "unknown encoding %q (want float, base64 or pgm)", encoding)
		return
	}
	engine, err := s.reg.Engine(req.Model)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	out, err := engine.Generate(ctx, req.N)
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrStopped):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "request timed out after %s", s.timeout)
		return
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		return
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if _, ok := pgmSide(out.Cols); encoding == "pgm" && !ok {
		httpError(w, http.StatusBadRequest, "pgm needs square outputs, dim %d is not a square", out.Cols)
		return
	}
	bufp := new([]byte)
	if out.Rows <= engine.cfg.MaxBatchSamples {
		bufp = respBufPool.Get().(*[]byte)
		defer respBufPool.Put(bufp)
	}
	body, err := engine.Model().appendResponse((*bufp)[:0], out, encoding)
	*bufp = body
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// maxReloadBody bounds one /v1/reload artifact push. Mixture artifacts
// are generator parameters only, megabytes at most; anything larger is a
// malformed or hostile push.
const maxReloadBody = 256 << 20

// HealthStatus is the /healthz response body. Beyond the bare liveness
// bit it carries the identity (version + content hash) of every loaded
// model and the request queue depth, so a routing gateway can decide
// readiness, confirm a hot reload took effect, and weigh readmission on
// real signal instead of a blind 200.
type HealthStatus struct {
	Status string `json:"status"`
	// QueueDepth is the total requests waiting across all engines.
	QueueDepth int           `json:"queue_depth"`
	Models     []ModelStatus `json:"models"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := HealthStatus{
		Status:     "ok",
		QueueDepth: s.reg.QueueDepth(),
		Models:     s.reg.Statuses(),
	}
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		st.Status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

// ReloadResponse is the body of a successful /v1/reload.
type ReloadResponse struct {
	Model   string `json:"model"`
	Version uint64 `json:"version"`
	Hash    string `json:"hash"`
}

// handleReload accepts a serialised mixture artifact as the request body
// and hot-swaps it into the registry under the model named by the
// ?model= query parameter. In-flight and queued requests finish on the
// old version; batches formed after the swap see the new one. This is
// the push half of the train→serve deployment loop: the gateway's
// deployer POSTs fresh artifacts here, then confirms the new hash via
// /healthz before counting the replica as flipped.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	name := r.URL.Query().Get("model")
	if name == "" {
		httpError(w, http.StatusBadRequest, "model query parameter required")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReloadBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading artifact body: %v", err)
		return
	}
	if err := s.reg.LoadBytes(name, data); err != nil {
		httpError(w, http.StatusBadRequest, "loading artifact: %v", err)
		return
	}
	engine, err := s.reg.Engine(name)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	m := engine.Model()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ReloadResponse{Model: m.Name, Version: m.Version, Hash: m.Hash})
}

// modelInfo is one /modelz entry.
type modelInfo struct {
	Name      string    `json:"name"`
	Version   uint64    `json:"version"`
	LatentDim int       `json:"latent_dim"`
	OutputDim int       `json:"output_dim"`
	Members   []int     `json:"members"`
	Weights   []float64 `json:"weights"`
	Network   string    `json:"network"`
}

func (s *Server) handleModelz(w http.ResponseWriter, r *http.Request) {
	infos := make([]modelInfo, 0, s.reg.Len())
	for _, name := range s.reg.Names() {
		engine, err := s.reg.Engine(name)
		if err != nil {
			continue
		}
		m := engine.Model()
		infos = append(infos, modelInfo{
			Name:      m.Name,
			Version:   m.Version,
			LatentDim: m.LatentDim,
			OutputDim: m.OutputDim,
			Members:   m.Members,
			Weights:   m.Weights,
			Network:   m.Cfg.NetworkType,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"models": infos})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Metrics().WriteText(w)
}
