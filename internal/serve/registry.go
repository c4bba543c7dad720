package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"cellgan/internal/checkpoint"
)

// Registry holds the named models a server offers. Loading an existing
// name hot-reloads it: the engine keeps running and the model pointer is
// swapped atomically, so in-flight requests finish on the version they
// started with and later batches see the new parameters.
type Registry struct {
	cfg     EngineConfig
	metrics *Metrics

	mu      sync.RWMutex
	engines map[string]*Engine
	closed  bool
}

// NewRegistry returns an empty registry whose engines share cfg and
// metrics.
func NewRegistry(cfg EngineConfig, metrics *Metrics) *Registry {
	if metrics == nil {
		metrics = NewMetrics()
	}
	r := &Registry{
		cfg:     cfg.withDefaults(),
		metrics: metrics,
		engines: make(map[string]*Engine),
	}
	metrics.setQueueDepth(r.QueueDepth)
	metrics.setModels(r.Len)
	return r
}

// Metrics returns the registry's shared metrics set.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Load (re)loads a model under the given name from an artifact.
func (r *Registry) Load(name string, a *checkpoint.MixtureArtifact) error {
	if name == "" {
		return fmt.Errorf("serve: model name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrStopped
	}
	if e, ok := r.engines[name]; ok {
		return e.load(name, a)
	}
	e, err := NewEngine(name, a, r.cfg, r.metrics)
	if err != nil {
		return err
	}
	r.engines[name] = e
	return nil
}

// LoadFile (re)loads a model from a mixture artifact file.
func (r *Registry) LoadFile(name, path string) error {
	a, err := checkpoint.LoadMixtureFile(path)
	if err != nil {
		return err
	}
	return r.Load(name, a)
}

// LoadBytes (re)loads a model from a serialised mixture artifact, e.g.
// the body of a /v1/reload push.
func (r *Registry) LoadBytes(name string, data []byte) error {
	a, err := checkpoint.ReadMixture(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return r.Load(name, a)
}

// ModelStatus identifies one loaded model for health checks: the
// registry key, the monotonically increasing load version, the artifact
// content hash, and the model's current request queue depth.
type ModelStatus struct {
	Name       string `json:"name"`
	Version    uint64 `json:"version"`
	Hash       string `json:"hash"`
	QueueDepth int    `json:"queue_depth"`
}

// Statuses returns the status of every loaded model in name order — the
// payload of /healthz and the signal the gateway's readiness and
// readmission decisions key on.
func (r *Registry) Statuses() []ModelStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sts := make([]ModelStatus, 0, len(r.engines))
	for name, e := range r.engines {
		m := e.Model()
		sts = append(sts, ModelStatus{
			Name:       name,
			Version:    m.Version,
			Hash:       m.Hash,
			QueueDepth: e.QueueDepth(),
		})
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].Name < sts[j].Name })
	return sts
}

// Engine returns the engine serving name. An empty name resolves to the
// only loaded model, so single-model deployments can omit it.
func (r *Registry) Engine(name string) (*Engine, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.engines) == 1 {
			for _, e := range r.engines {
				return e, nil
			}
		}
		return nil, fmt.Errorf("serve: %d models loaded, name required", len(r.engines))
	}
	e, ok := r.engines[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return e, nil
}

// Names returns the loaded model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.engines))
	for n := range r.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of loaded models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.engines)
}

// QueueDepth returns the total requests waiting across all engines.
func (r *Registry) QueueDepth() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	depth := 0
	for _, e := range r.engines {
		depth += e.QueueDepth()
	}
	return depth
}

// Close drains and stops every engine. Queued requests are served first;
// later loads and submissions fail.
func (r *Registry) Close() {
	r.mu.Lock()
	engines := make([]*Engine, 0, len(r.engines))
	for _, e := range r.engines {
		engines = append(engines, e)
	}
	r.closed = true
	r.mu.Unlock()
	for _, e := range engines {
		e.Close()
	}
}
