// Command bench is the repo's benchmark: six workloads, the end-to-end
// metrics of BENCHMARK.json measured from outside the program, and a traced
// pass that times single layers. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's contract)
//	bench --seed N [--out FILE]                             every workload, untraced and traced
//	bench -compare A.jsonl B.jsonl                          verdict per (metric, workload)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// outDir receives trace files, result logs and scratch artifacts.
const outDir = "bench/out"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process; empty runs every workload, each in a child process")
		seed     = flag.Uint64("seed", 1, "seeds the generated config and request stream")
		seconds  = flag.Int("seconds", 12, "wall budget of the timed section; fixes the operation counts")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "2 iterations / 20 requests per workload, all checks live")
		out      = flag.String("out", filepath.Join(outDir, "results.jsonl"), "all-workloads mode: append one line per run to this file")
		artifact = flag.String("make-artifact", "", "internal: train the serving artifact for --seed, save it here and exit")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *artifact != "":
		info, err := makeArtifact(*seed, *smoke, *trace == 1, *artifact)
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(info)
	case *workload != "":
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		res, det, err := runOne(*workload, *seed, *seconds, *trace, *smoke, outDir)
		if err != nil {
			fatal(err)
		}
		printRun(res, det)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(*seed, *seconds, *smoke, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process; outDir receives its trace file
// and scratch artifacts.
func runOne(name string, seed uint64, seconds, trace int, smoke bool, outDir string) (result, *detail, error) {
	if seconds < 1 {
		return result{}, nil, fmt.Errorf("--seconds %d must be positive", seconds)
	}
	d := newDetail(name, seed, seconds, trace, smoke)
	var res result
	var err error
	_, training := trainSpecs[name]
	_, serving := serveSpecs[name]
	switch {
	case training && trace == 0:
		res, err = trainUntraced(name, seed, seconds, smoke, d)
	case training:
		res, err = trainTraced(name, seed, seconds, smoke, d, outDir)
	case serving && trace == 0:
		res, err = serveUntraced(name, seed, seconds, smoke, d, outDir)
	case serving:
		res, err = serveTraced(name, seed, seconds, smoke, d, outDir)
	default:
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	for k, v := range res.Metrics {
		if !finite(v.Value) {
			return result{}, nil, fmt.Errorf("%s: metric %s is not a number", name, k)
		}
	}
	return res, d, nil
}

// printRun prints every metric by name with unit and direction, then the
// detail line, then — last — the one JSON object the driver reads.
func printRun(res result, d *detail) {
	defs := endToEnd
	if d.Trace == 1 {
		defs = perLayer
	}
	h := d.Host
	fmt.Printf("# %s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d %s commit=%s kernel=%s loadavg_1m=%.2f noisy=%v\n",
		d.Workload, d.Seed, d.Seconds, d.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel, h.Loadavg1m, h.Noisy)
	for _, def := range defs {
		line := fmt.Sprintf("%-28s %14.6g %-8s %s is better", def.Name, res.Metrics[def.Name].Value, def.Unit, def.Better)
		if iqr, ok := d.IQR[def.Name]; ok {
			line += fmt.Sprintf("  (segment iqr %.4g)", iqr)
		}
		fmt.Println(line)
	}
	if d.Trace == 0 {
		for _, def := range derived {
			line := fmt.Sprintf("%-28s %14.6g %-8s %s is better", def.Name, derivedValue(def.Name, res, d), def.Unit, def.Better)
			switch def.Name {
			case "latency_ms_p95":
				line += fmt.Sprintf("  (at p%.4g; segment iqr %.4g)", d.Extra["latency_ms_p95.percentile"], d.IQR[def.Name])
			case "failed_share":
				line += fmt.Sprintf("  (%d failed of %d)", res.Failed, res.Attempted)
			}
			fmt.Println(line)
		}
	}
	for _, n := range d.Notes {
		fmt.Println("# note:", n)
	}
	dj, _ := json.Marshal(d)
	fmt.Printf("DETAIL %s\n", dj)
	rj, _ := json.Marshal(res)
	fmt.Printf("%s\n", rj)
}

// derivedValue reads one of the derived metrics off an untraced run.
func derivedValue(name string, res result, d *detail) float64 {
	if name == "failed_share" {
		return float64(res.Failed) / float64(res.Attempted)
	}
	return d.Extra[name]
}

// record is one line of a result file: a run's detail and result together.
type record struct {
	Detail detail `json:"detail"`
	Result result `json:"result"`
}

// runAll runs every workload, untraced then traced, each in a child process
// of its own so that memory, GC and allocation numbers belong to one
// workload, and appends the runs to the result file.
func runAll(seed uint64, seconds int, smoke bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	log, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer log.Close()
	allCorrect := true
	summary := map[string]map[string]value{}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
			if smoke {
				args = append(args, "--smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Env = append(os.Environ(), childEnv)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to end
			os.Stdout.Write(stdout)
			rec, perr := parseRun(stdout)
			if perr != nil {
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
				}
				return fmt.Errorf("%s trace=%d: %w", w.Name, trace, perr)
			}
			allCorrect = allCorrect && rec.Result.Correct && err == nil
			line, _ := json.Marshal(rec)
			if _, err := log.Write(append(line, '\n')); err != nil {
				return err
			}
			if summary[w.Name] == nil {
				summary[w.Name] = map[string]value{}
			}
			for k, v := range rec.Result.Metrics {
				summary[w.Name][k] = v
			}
			if trace == 0 {
				for _, def := range derived {
					summary[w.Name][def.Name] = value{derivedValue(def.Name, rec.Result, &rec.Detail), def.Unit}
				}
			}
		}
	}
	sj, _ := json.Marshal(struct {
		Seed      uint64                      `json:"seed"`
		Correct   bool                        `json:"correct"`
		Workloads map[string]map[string]value `json:"workloads"`
		Claim     *string                     `json:"claim"`
	}{seed, allCorrect, summary, nil})
	fmt.Printf("%s\n", sj)
	if !allCorrect {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// parseRun extracts the DETAIL line and the final result line of a run.
func parseRun(stdout []byte) (record, error) {
	var rec record
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return rec, fmt.Errorf("run printed no result")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
		return rec, fmt.Errorf("last line is not a result: %w", err)
	}
	dl := lines[len(lines)-2]
	if !bytes.HasPrefix(dl, []byte("DETAIL ")) {
		return rec, fmt.Errorf("run printed no DETAIL line")
	}
	if err := json.Unmarshal(dl[len("DETAIL "):], &rec.Detail); err != nil {
		return rec, err
	}
	return rec, nil
}

// readRecords loads a result file written by runAll.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
