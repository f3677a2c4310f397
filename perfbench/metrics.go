package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"bots/internal/core"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them; what "operation" and "batch" mean per workload is
// documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the repository's modules, in the order self times are
// listed.
var layers = []string{"omp", "apps", "core", "trace", "sim", "lab", "report", "serve"}

// perLayer lists the metrics of a traced run. A workload that never
// calls into a layer reports that layer's metrics as 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"omp.region_s", "s"},
		{"omp.tasks", "count"},
		{"omp.overhead_ns_per_task", "ns"},
		{"omp.steal_attempts_per_ktask", "count"},
		{"omp.steal_fail_frac", "ratio"},
		{"omp.taskwait_parks_per_ktask", "count"},
		{"omp.idle_parks_per_req", "count"},
		{"omp.submit_ns", "ns"},
	}
	for _, b := range core.All() {
		defs = append(defs, metricDef{"apps." + b.Name + ".seq_s", "s"})
	}
	defs = append(defs,
		metricDef{"apps.seq_s", "s"},
		metricDef{"apps.input_s", "s"},
		metricDef{"core.check_s", "s"},
		metricDef{"trace.record_tax", "ratio"},
		metricDef{"trace.finish_s", "s"},
		metricDef{"trace.analyze_s", "s"},
		metricDef{"trace.tasks", "count"},
		metricDef{"sim.run_s", "s"},
		metricDef{"sim.ns_per_task", "ns"},
	)
	for _, b := range core.All() {
		defs = append(defs, metricDef{"sim." + b.Name + ".pred_err", "ratio"})
	}
	defs = append(defs,
		metricDef{"lab.baseline_s", "s"},
		metricDef{"lab.execute_s", "s"},
		metricDef{"lab.queue_s", "s"},
		metricDef{"lab.store_put_s", "s"},
		metricDef{"lab.store_open_s", "s"},
		metricDef{"lab.store_bytes", "bytes"},
		metricDef{"lab.warm_hit_frac", "ratio"},
		metricDef{"lab.warm_executions", "count"},
		metricDef{"report.render_s", "s"},
		metricDef{"serve.prepare_s", "s"},
		metricDef{"serve.queue_p50_ms", "ms"},
		metricDef{"serve.queue_p99_ms", "ms"},
		metricDef{"serve.service_p50_ms", "ms"},
		metricDef{"serve.service_p99_ms", "ms"},
		metricDef{"serve.latency_p99_ms", "ms"},
		metricDef{"serve.gen_late_p99_ms", "ms"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return append(defs, metricDef{"trace_overhead_frac", "ratio"})
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64 // traced runs only
	spans             []span             // traced runs only
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one operation and whether it failed, logging the
// failure to standard error.
func (r *outcome) check(op string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
	}
}

// addSelfTimes derives the per-layer self times from the spans.
func (r *outcome) addSelfTimes() {
	self := selfTimes(r.spans)
	for _, l := range layers {
		r.layer[l+".self_s"] = self[l].Seconds()
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
