package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, traced bool) config {
	return config{seed: 7, seconds: 0.3, traced: traced, tiny: true, workDir: t.TempDir()}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables here and
// the benchmark definition at the repository root in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer())
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny sizes, untraced
// and traced, and checks that it passes its own output checks and
// reports every metric with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := fn(tinyConfig(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			rep.e2e["peak_rss_mb"] = 1 // set by main after the workload
			res := resultOf(rep, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer()
				if len(rep.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			}
			for _, d := range want {
				if _, ok := rep.e2e[d.name]; !traced && !ok {
					t.Errorf("%s: end-to-end metric %s not measured", name, d.name)
				}
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			for _, d := range endToEnd {
				if !traced && rep.e2e[d.name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, rep.e2e[d.name])
				}
			}
		}
	}
}

// TestDigestMismatchCountsAsFailure corrupts one reference digest and
// expects every run of that cell to fail verification.
func TestDigestMismatchCountsAsFailure(t *testing.T) {
	cfg := tinyConfig(t, false)
	cfg.corrupt = true
	rep, err := fineTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := resultOf(rep, false)
	passes := rep.attempted / len(fineCells)
	if res.Correct || res.Failed != passes {
		t.Errorf("correct=%v failed=%d, want one failure in each of %d passes", res.Correct, res.Failed, passes)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "apps.run", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "omp.region", Start: 20, End: 60, Placed: true},
		{ID: 4, Parent: 1, Name: "core.check", Start: 50, End: 70}, // overlaps apps.run
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench": 40, "apps": 10, "omp": 40, "core": 20}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self time of %s = %d, want %d", layer, self[layer], d)
		}
	}
}
