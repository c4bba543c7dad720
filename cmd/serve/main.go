// Command serve exposes trained generator mixtures over HTTP: it loads
// mixture artifacts exported by trainer -export-mixture, batches
// concurrent /generate requests into shared forward passes, and reports
// request/latency/batch metrics on /metrics.
//
// Serve a model:
//
//	trainer -iterations 20 -export-mixture best.mix
//	serve -model digits=best.mix -addr 127.0.0.1:8080
//	curl -s -X POST localhost:8080/v1/generate -d '{"n":4,"encoding":"pgm"}'
//
// Load-test a configuration in-process (no network setup needed):
//
//	serve -model digits=best.mix -loadtest -clients 32 -requests 1024 -n 4
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/report"
	"cellgan/internal/serve"
	"cellgan/internal/telemetry"
)

func main() {
	models := flag.String("model", "", "models to serve as name=path[,name=path...]")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 2, "forward-pass workers per model")
	maxBatch := flag.Int("max-batch", 256, "max samples coalesced into one forward pass")
	queue := flag.Int("queue", 256, "request queue bound per model (full queue sheds with 429)")
	batchWait := flag.Duration("batch-wait", 2*time.Millisecond, "how long a worker waits to coalesce more requests")
	timeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request timeout")
	seed := flag.Uint64("seed", 1, "latent-sampling seed")
	f32 := flag.Bool("f32", false, "serve forward passes on the float32 kernel tier (outputs match float64 only to float32 precision)")
	shard := flag.String("shard", "", "serve only shard i/n of each mixture, e.g. 0/3 (weights renormalized)")
	loadtest := flag.Bool("loadtest", false, "run an in-process load test instead of serving")
	clients := flag.Int("clients", 32, "loadtest: concurrent clients")
	requests := flag.Int("requests", 1024, "loadtest: total requests")
	samplesPer := flag.Int("n", 4, "loadtest: samples per request")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this extra address")
	flag.Parse()

	if *models == "" {
		fmt.Fprintln(os.Stderr, "serve: -model name=path is required (export one with: trainer -export-mixture best.mix)")
		os.Exit(2)
	}
	ecfg := serve.EngineConfig{
		Workers:         *workers,
		MaxBatchSamples: *maxBatch,
		QueueSize:       *queue,
		BatchWait:       *batchWait,
		Seed:            *seed,
		Float32:         *f32,
	}
	shardIdx, shardOf, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}

	reg := serve.NewRegistry(ecfg, nil)
	for _, spec := range strings.Split(*models, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(spec), "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "serve: bad -model entry %q (want name=path)\n", spec)
			os.Exit(2)
		}
		a, err := checkpoint.LoadMixtureFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		total := len(a.Ranks)
		if shardOf > 1 {
			if a, err = checkpoint.ShardMixture(a, shardIdx, shardOf); err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
		}
		if err := reg.Load(name, a); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		e, _ := reg.Engine(name)
		m := e.Model()
		if shardOf > 1 {
			fmt.Printf("loaded %s from %s: shard %d/%d holds %d of %d members, latent %d → output %d\n",
				name, path, shardIdx, shardOf, len(m.Members), total, m.LatentDim, m.OutputDim)
		} else {
			fmt.Printf("loaded %s from %s: %d-member mixture, latent %d → output %d\n",
				name, path, len(m.Members), m.LatentDim, m.OutputDim)
		}
	}

	if *debugAddr != "" {
		// The debug server shares the serving metrics registry, so the
		// same series appear on both /metrics endpoints, plus pprof.
		dsrv, bound, err := telemetry.StartDebugServer(*debugAddr, reg.Metrics().Registry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		defer dsrv.Close()
		fmt.Printf("debug server on http://%s (/metrics, /debug/pprof/)\n", bound)
	}

	srv := serve.NewServer(reg, *timeout)
	if *loadtest {
		runLoadTest(reg, srv, *clients, *requests, *samplesPer)
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	httpServer := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("serving %d model(s) on http://%s (POST /v1/generate, /healthz, /modelz, /metrics)\n",
		reg.Len(), ln.Addr())

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("serve: draining...")
		// Fail health checks first so balancers divert traffic, then stop
		// accepting connections, finish in-flight requests, and drain the
		// engine queues.
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpServer.Shutdown(ctx)
		reg.Close()
	}()
	if err := httpServer.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("serve: drained, bye")
}

// parseShard parses an "i/n" shard spec; "" means no sharding (0, 1).
func parseShard(s string) (idx, of int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n with 0 <= i < n)", s)
	}
	return i, n, nil
}

// runLoadTest drives the server over loopback and prints a latency and
// throughput report — the serving counterpart of the training benchmarks.
func runLoadTest(reg *serve.Registry, srv *serve.Server, clients, requests, n int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	httpServer := &http.Server{Handler: srv}
	go httpServer.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer func() {
		httpServer.Close()
		reg.Close()
	}()

	url := "http://" + ln.Addr().String()
	fmt.Printf("load-testing %s: %d clients × %d total requests × %d samples\n",
		url, clients, requests, n)
	res, err := serve.LoadTest(url, serve.LoadTestOptions{
		Clients:  clients,
		Requests: requests,
		N:        n,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	t := report.NewTable("Serving load test", "metric", "value")
	t.AddRow("requests ok", fmt.Sprint(res.Requests))
	t.AddRow("requests shed (429)", fmt.Sprint(res.Shed))
	t.AddRow("errors", fmt.Sprint(res.Errors))
	t.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
	t.AddRow("throughput", fmt.Sprintf("%.1f req/s", res.RPS))
	t.AddRow("sample throughput", fmt.Sprintf("%.1f samples/s", res.SamplesPerSec))
	t.AddRow("latency p50", res.P50.String())
	t.AddRow("latency p90", res.P90.String())
	t.AddRow("latency p99", res.P99.String())
	t.AddRow("latency max", res.Max.String())
	t.AddRow("max batch (requests)", fmt.Sprint(reg.Metrics().MaxBatch()))
	fmt.Println(t)
}
