// Command gateway fronts a fleet of serve replicas: it consistent-hash
// routes /v1/generate requests across them, ejects replicas that fail
// health probes (readmitting them when they recover), hedges tail-slow
// requests against a second replica, retries connection errors, and —
// with -watch — hot-reloads a freshly exported mixture artifact across
// the fleet without dropping traffic.
//
// Serve three replicas behind one endpoint:
//
//	trainer -iterations 20 -export-mixture best.mix
//	serve -model digits=best.mix -addr 127.0.0.1:8081 -shard 0/3 &
//	serve -model digits=best.mix -addr 127.0.0.1:8082 -shard 1/3 &
//	serve -model digits=best.mix -addr 127.0.0.1:8083 -shard 2/3 &
//	gateway -addr 127.0.0.1:8080 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//	curl -s -X POST localhost:8080/v1/generate -d '{"model":"digits","n":4}'
//
// Continuous deployment — retrain and the fleet follows:
//
//	gateway -addr :8080 -replicas ... -watch best.mix -watch-model digits
//
// Multi-process load test (spawns its own replica subprocesses):
//
//	gateway -loadtest -model digits=best.mix -replica-count 3 -clients 32 -requests 2048
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/gateway"
	"cellgan/internal/report"
	"cellgan/internal/serve"
	"cellgan/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "gateway listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs, e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")

		probeInterval = flag.Duration("probe-interval", time.Second, "replica health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
		strikes       = flag.Int("strikes", 3, "consecutive failures that eject a replica")
		readmit       = flag.Int("readmit", 2, "consecutive clean probes that readmit an ejected replica")

		timeout     = flag.Duration("timeout", 30*time.Second, "end-to-end client request timeout")
		maxAttempts = flag.Int("max-attempts", 3, "attempts per request (first try plus retries)")
		backoff     = flag.Duration("retry-backoff", 10*time.Millisecond, "initial retry backoff (doubles per retry)")

		hedgeQuantile = flag.Float64("hedge-quantile", 0.99, "latency quantile that arms the hedge timer")
		hedgeMin      = flag.Duration("hedge-min", time.Millisecond, "minimum hedge delay")
		hedgeMax      = flag.Duration("hedge-max", 250*time.Millisecond, "maximum hedge delay")
		hedgeBudget   = flag.Int("hedge-budget", 10, "hedges as percent of requests (0 disables hedging)")

		watch      = flag.String("watch", "", "mixture artifact file to watch and hot-reload across replicas")
		watchModel = flag.String("watch-model", "digits", "model name the watched artifact is served under")

		debugAddr = flag.String("debug-addr", "", "serve gateway /metrics and /debug/pprof on this extra address")

		loadtest     = flag.Bool("loadtest", false, "spawn replica subprocesses and load-test the gateway instead of serving")
		model        = flag.String("model", "", "loadtest/replica: model to load as name=path")
		replicaCount = flag.Int("replica-count", 3, "loadtest: replica subprocesses to spawn")
		shardFleet   = flag.Bool("shard-fleet", false, "loadtest: give replica i shard i/N of the mixture instead of a full copy")
		clients      = flag.Int("clients", 32, "loadtest: concurrent clients")
		requests     = flag.Int("requests", 2048, "loadtest: total requests")
		samplesPer   = flag.Int("n", 4, "loadtest: samples per request")

		replicaMode  = flag.Bool("replica-mode", false, "internal: run as a loadtest replica subprocess")
		replicaShard = flag.String("shard", "", "internal: replica shard spec i/n")
		replicaSeed  = flag.Uint64("seed", 1, "internal: replica latent-sampling seed")
	)
	flag.Parse()

	switch {
	case *replicaMode:
		runReplicaChild(*model, *replicaShard, *replicaSeed)
	case *loadtest:
		runLoadTest(*model, *replicaCount, *shardFleet, *clients, *requests, *samplesPer,
			gateway.Options{
				Table: gateway.TableOptions{
					ProbeInterval:    *probeInterval,
					ProbeTimeout:     *probeTimeout,
					StrikeLimit:      *strikes,
					ReadmitSuccesses: *readmit,
				},
				RequestTimeout:     *timeout,
				MaxAttempts:        *maxAttempts,
				RetryBackoff:       *backoff,
				HedgeQuantile:      *hedgeQuantile,
				HedgeMin:           *hedgeMin,
				HedgeMax:           *hedgeMax,
				HedgeBudgetPercent: *hedgeBudget,
			})
	default:
		if *replicas == "" {
			fmt.Fprintln(os.Stderr, "gateway: -replicas is required (or use -loadtest)")
			os.Exit(2)
		}
		urls := splitList(*replicas)
		runGateway(*addr, *debugAddr, *watch, *watchModel, gateway.Options{
			Replicas: urls,
			Table: gateway.TableOptions{
				ProbeInterval:    *probeInterval,
				ProbeTimeout:     *probeTimeout,
				StrikeLimit:      *strikes,
				ReadmitSuccesses: *readmit,
			},
			RequestTimeout:     *timeout,
			MaxAttempts:        *maxAttempts,
			RetryBackoff:       *backoff,
			HedgeQuantile:      *hedgeQuantile,
			HedgeMin:           *hedgeMin,
			HedgeMax:           *hedgeMax,
			HedgeBudgetPercent: *hedgeBudget,
		})
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gateway:", err)
	os.Exit(1)
}

// runGateway is the serving mode: route until SIGINT/SIGTERM, then drain.
func runGateway(addr, debugAddr, watch, watchModel string, opts gateway.Options) {
	g, err := gateway.New(opts)
	if err != nil {
		fatal(err)
	}
	g.Start()
	defer g.Stop()

	if watch != "" {
		dopts := gateway.DeployOptions{
			Path:  watch,
			Model: watchModel,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "gateway: "+format+"\n", args...)
			},
		}
		d, err := gateway.NewDeployer(dopts, g.Table(), g.Metrics())
		if err != nil {
			fatal(err)
		}
		d.Start()
		defer d.Stop()
		fmt.Printf("watching %s: new artifacts hot-reload as model %q\n", watch, watchModel)
	}

	if debugAddr != "" {
		dsrv, bound, err := telemetry.StartDebugServer(debugAddr, g.Metrics().Registry())
		if err != nil {
			fatal(err)
		}
		defer dsrv.Close()
		fmt.Printf("debug server on http://%s (/metrics, /debug/pprof/)\n", bound)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	httpServer := &http.Server{Handler: g, ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("gateway on http://%s routing %d replica(s) (POST /v1/generate, /healthz, /replicaz, /metrics)\n",
		ln.Addr(), len(opts.Replicas))

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("gateway: draining...")
		// Fail /healthz first so upstream balancers divert, then finish
		// in-flight routed requests.
		g.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpServer.Shutdown(ctx)
	}()
	if err := httpServer.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
	fmt.Println("gateway: drained, bye")
}

// runReplicaChild is the -replica-mode entry point: one serve replica for
// the multi-process load test. It binds an ephemeral port, announces it
// on stdout as "REPLICA <url>", and exits when its stdin reaches EOF —
// tying its lifetime to the parent without signals or pid files.
func runReplicaChild(modelSpec, shard string, seed uint64) {
	name, path, ok := strings.Cut(modelSpec, "=")
	if !ok || name == "" || path == "" {
		fatal(fmt.Errorf("replica-mode needs -model name=path, got %q", modelSpec))
	}
	a, err := checkpoint.LoadMixtureFile(path)
	if err != nil {
		fatal(err)
	}
	if shard != "" {
		var i, n int
		if _, err := fmt.Sscanf(shard, "%d/%d", &i, &n); err != nil {
			fatal(fmt.Errorf("bad -shard %q: %v", shard, err))
		}
		if a, err = checkpoint.ShardMixture(a, i, n); err != nil {
			fatal(err)
		}
	}
	reg := serve.NewRegistry(serve.EngineConfig{Seed: seed}, nil)
	if err := reg.Load(name, a); err != nil {
		fatal(err)
	}
	srv := serve.NewServer(reg, serve.DefaultRequestTimeout)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	httpServer := &http.Server{Handler: srv}
	go httpServer.Serve(ln) //nolint:errcheck // Serve returns on Close
	fmt.Printf("REPLICA http://%s\n", ln.Addr())

	// Block until the parent closes our stdin (or dies, which closes it
	// too), then shut down.
	bufio.NewReader(os.Stdin).WriteTo(new(nullWriter)) //nolint:errcheck
	httpServer.Close()
	reg.Close()
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// childReplica is one spawned replica subprocess.
type childReplica struct {
	cmd   *exec.Cmd
	stdin *os.File // write end; closing it tells the child to exit
	url   string
}

// spawnReplica starts this binary in -replica-mode and waits for its
// address announcement.
func spawnReplica(exe, modelSpec, shard string, seed uint64) (*childReplica, error) {
	args := []string{"-replica-mode", "-model", modelSpec, "-seed", fmt.Sprint(seed)}
	if shard != "" {
		args = append(args, "-shard", shard)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdin = pr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pr.Close() // child holds its own copy now

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if url, ok := strings.CutPrefix(line, "REPLICA "); ok {
			// Keep draining the child's stdout so it never blocks on a
			// full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return &childReplica{cmd: cmd, stdin: pw, url: url}, nil
		}
		fmt.Println(line) // model-load banner etc.
	}
	pw.Close()
	cmd.Wait() //nolint:errcheck
	return nil, fmt.Errorf("replica subprocess exited before announcing its address")
}

func (c *childReplica) stop() {
	c.stdin.Close()
	c.cmd.Wait() //nolint:errcheck
}

// runLoadTest is the multi-process harness: N real replica subprocesses,
// one in-process gateway routing them, and the serve load generator
// aimed at the gateway. Results print as a table plus a `go test -bench`
// line whose error count the CI gateway smoke checks.
func runLoadTest(modelSpec string, replicaCount int, shardFleet bool, clients, requests, n int, opts gateway.Options) {
	if modelSpec == "" {
		fatal(fmt.Errorf("-loadtest needs -model name=path (export one with: trainer -export-mixture best.mix)"))
	}
	name, _, ok := strings.Cut(modelSpec, "=")
	if !ok {
		fatal(fmt.Errorf("bad -model %q (want name=path)", modelSpec))
	}
	if replicaCount < 1 {
		replicaCount = 1
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}

	children := make([]*childReplica, 0, replicaCount)
	defer func() {
		for _, c := range children {
			c.stop()
		}
	}()
	for i := 0; i < replicaCount; i++ {
		shard := ""
		if shardFleet {
			shard = fmt.Sprintf("%d/%d", i, replicaCount)
		}
		c, err := spawnReplica(exe, modelSpec, shard, uint64(i+1))
		if err != nil {
			fatal(err)
		}
		children = append(children, c)
		fmt.Printf("replica %d: %s%s\n", i, c.url, map[bool]string{true: " (shard " + shard + ")"}[shard != ""])
	}

	opts.Replicas = make([]string, len(children))
	for i, c := range children {
		opts.Replicas[i] = c.url
	}
	g, err := gateway.New(opts)
	if err != nil {
		fatal(err)
	}
	g.Start()
	defer g.Stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	httpServer := &http.Server{Handler: g}
	go httpServer.Serve(ln) //nolint:errcheck
	defer httpServer.Close()

	url := "http://" + ln.Addr().String()
	fmt.Printf("load-testing gateway %s over %d replicas: %d clients × %d requests × %d samples\n",
		url, replicaCount, clients, requests, n)
	res, err := serve.LoadTest(url, serve.LoadTestOptions{
		Clients:  clients,
		Requests: requests,
		N:        n,
		Model:    name,
	})
	if err != nil {
		fatal(err)
	}

	t := report.NewTable("Gateway load test", "metric", "value")
	t.AddRow("replicas", fmt.Sprint(replicaCount))
	t.AddRow("requests ok", fmt.Sprint(res.Requests))
	t.AddRow("requests shed (429)", fmt.Sprint(res.Shed))
	t.AddRow("errors", fmt.Sprint(res.Errors))
	t.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
	t.AddRow("throughput", fmt.Sprintf("%.1f req/s", res.RPS))
	t.AddRow("sample throughput", fmt.Sprintf("%.1f samples/s", res.SamplesPerSec))
	t.AddRow("latency p50", res.P50.String())
	t.AddRow("latency p99", res.P99.String())
	t.AddRow("latency max", res.Max.String())
	hedges, _ := metricPair(g)
	t.AddRow("hedges launched", fmt.Sprint(hedges))
	fmt.Println(t)
	fmt.Println(res.BenchLine(fmt.Sprintf("GatewayServe_replicas_%d", replicaCount)))
}

func metricPair(g *gateway.Gateway) (hedges, requests uint64) {
	return g.Metrics().Hedges(), g.Metrics().Requests()
}
