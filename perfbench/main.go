// Command perfbench is the repository's benchmark. It runs one named
// workload against the task runtime and the layers above it, checks
// every output, and prints one JSON result line.
//
//	perfbench --workload fine-tasks --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics derived from spans that the
// benchmark records around its calls into each layer, and the spans
// are written to a JSON-lines file named on the header line. See
// README.md for what each workload runs and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	_ "bots/internal/apps/all"
)

// teamThreads is the largest omp team any workload starts. Wall-clock
// figures from a team larger than the host's cores measure
// oversubscription, so the benchmark refuses to run on such a host.
const teamThreads = 2

// outDir, relative to the checkout root, holds the span files and the
// run's scratch stores.
var outDir = filepath.Join(".bench_build", "perfbench")

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	// tiny selects the smallest input class and short phases, for the
	// self-test.
	tiny bool
	// corrupt replaces one reference digest, for the self-test's
	// forced verification failure.
	corrupt bool
	workDir string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c config) rng() *rand.Rand { return rand.New(rand.NewPCG(c.seed, 0x62656e6368)) }

// tracer returns the run's tracer, nil for an untraced run.
func (c config) tracer() *tracer {
	if c.traced {
		return newTracer()
	}
	return nil
}

var workloads = map[string]func(config) (*outcome, error){
	"fine-tasks": fineTasks,
	"lab-sweep":  labSweep,
	"serve-open": serveOpen,
}

type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() hostShape {
	return hostShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// checkHost refuses hosts on which a teamThreads team would be
// oversubscribed.
func checkHost(h hostShape) error {
	if teamThreads > h.NProc || teamThreads > h.GOMAXPROCS {
		return fmt.Errorf("refusing to report wall-clock metrics: a %d-thread team exceeds nproc=%d or GOMAXPROCS=%d",
			teamThreads, h.NProc, h.GOMAXPROCS)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf selects the metrics the run reports: the end-to-end ones
// for an untraced run, the per-layer ones for a traced run.
func resultOf(rep *outcome, traced bool) result {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer(), rep.layer
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: fine-tasks, lab-sweep or serve-open")
		seed     = flag.Uint64("seed", 1, "workload seed: cell order and arrival times")
		secs     = flag.Float64("seconds", 20, "measured time of the run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *secs <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fine-tasks|lab-sweep|serve-open, --seconds > 0 and --trace 0|1")
		return 2
	}
	host := currentHost()
	if err := checkHost(host); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *secs, traced: *traceOn == 1,
		workDir: filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := fn(cfg)
	os.RemoveAll(cfg.workDir)
	if err == nil {
		rep.e2e["peak_rss_mb"], err = peakRSSMB()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	header := map[string]any{"workload": *workload, "seed": *seed, "seconds": *secs,
		"trace": *traceOn, "host": host}
	if cfg.traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		header["spans"] = path
		header["span_count"] = len(rep.spans)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(header)
	res := resultOf(rep, cfg.traced)
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}
