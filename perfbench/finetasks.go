package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
)

// fineCells are the fine-tasks workload's cells: µs-scale task bodies
// with no or manual cut-offs, so spawn, steal, taskwait and park
// dominate. health/manual-tied runs slower on two threads than
// sequentially on a 2-CPU host; it stays in so that anomaly is timed.
var fineCells = []struct{ bench, version string }{
	{"fib", "none-tied"},
	{"nqueens", "none-untied"},
	{"uts", "none-untied"},
	{"health", "manual-tied"},
	{"sort", "untied"},
}

// setupReps and quickSetupReps are how often a workload repeats its
// set-up for the median: three sequential references take about as
// long as a pass, other set-ups take milliseconds.
const (
	setupReps      = 3
	quickSetupReps = 21
)

// fineCell is one resolved cell and its sequential reference.
type fineCell struct {
	name    string
	b       *core.Benchmark
	version string
	seq     *core.SeqResult
	seqS    []float64 // sequential times, one per set-up
}

// passStats accumulates one pass over every cell.
type passStats struct {
	wall, region, input, check time.Duration
	seq                        time.Duration
	omp                        omp.Stats
}

// fineTasks runs passes of direct core.Benchmark.Run calls, each pass
// running every cell once in a seeded order, until the run's time is
// up. A traced run alternates untraced and traced passes.
func fineTasks(cfg config) (*outcome, error) {
	class := core.Medium
	if cfg.tiny {
		class = core.Test
	}
	rep := newOutcome()
	tr := cfg.tracer()
	rng := cfg.rng()

	cells := make([]*fineCell, len(fineCells))
	for i, fc := range fineCells {
		b, err := core.Get(fc.bench)
		if err != nil {
			return nil, err
		}
		cells[i] = &fineCell{name: fc.bench + "/" + fc.version, b: b, version: fc.version}
	}

	// Set-up: the sequential references whose digests verify every
	// parallel run, taken setupReps times for a median.
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		root := tr.open("bench.setup", strconv.Itoa(r), 0)
		start := time.Now()
		for _, c := range cells {
			var seq *core.SeqResult
			var err error
			tr.call("apps.seq", c.name, root, func() { seq, err = c.b.Seq(class) })
			if err != nil {
				return nil, fmt.Errorf("%s sequential reference: %w", c.name, err)
			}
			if c.seq != nil && seq.Digest != c.seq.Digest {
				rep.check(c.name+" sequential", fmt.Errorf("digest %s differs from the previous set-up's %s", seq.Digest, c.seq.Digest))
			}
			c.seq = seq
			c.seqS = append(c.seqS, seq.Elapsed.Seconds())
		}
		setups = append(setups, time.Since(start))
		tr.close(root)
	}
	if cfg.corrupt {
		cells[0].seq.Digest += "-corrupt"
	}

	var (
		latencies     []time.Duration
		plain, traced []passStats
		deadline      = time.Now().Add(cfg.duration())
		minPasses     = 2
	)
	if cfg.traced {
		minPasses = 4
	}
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr // a traced run alternates untraced and traced passes
		}
		ps := passStats{}
		root := t.open("bench.pass", strconv.Itoa(i), 0)
		start := time.Now()
		for _, k := range rng.Perm(len(cells)) {
			c := cells[k]
			runtime.GC() // so no cell pays for collecting another's garbage
			runStart := time.Now()
			res, err := c.b.Run(core.RunConfig{Class: class, Version: c.version, Threads: teamThreads})
			d := time.Since(runStart)
			latencies = append(latencies, d)
			runSpan := t.add("apps.run", c.name, root, runStart, runStart.Add(d))
			if err == nil {
				t.addPlaced("omp.region", c.name, runSpan, res.Elapsed)
				ps.region += res.Elapsed
				ps.input += d - res.Elapsed
				ps.seq += c.seq.Elapsed
				addStats(&ps.omp, res.Stats)
				ps.check += t.call("core.check", c.name, root, func() { err = c.b.Check(c.seq, res) })
			}
			rep.check(c.name, err)
		}
		ps.wall = time.Since(start)
		t.close(root)
		if t != nil {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
	}

	rep.e2e["setup_s"] = median(seconds(setups))
	rep.e2e["wall_s"] = median(seconds(walls(plain)))
	rep.e2e["latency_p50_ms"] = quantile(millis(latencies), 0.5)
	if cfg.traced {
		var seqTotal float64
		for _, c := range cells {
			s := median(c.seqS)
			rep.layer["apps."+c.b.Name+".seq_s"] = s
			seqTotal += s
		}
		rep.layer["apps.seq_s"] = seqTotal
		addRunLayers(rep, traced, teamThreads)
		rep.layer["trace_overhead_frac"] = median(seconds(walls(traced)))/median(seconds(walls(plain))) - 1
		rep.spans = tr.snapshot()
		rep.addSelfTimes()
	}
	return rep, nil
}

func walls(ps []passStats) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

func addStats(dst *omp.Stats, s *omp.Stats) {
	if s == nil {
		return
	}
	dst.TasksCreated += s.TasksCreated
	dst.TasksUndeferred += s.TasksUndeferred
	dst.StealAttempts += s.StealAttempts
	dst.StealFails += s.StealFails
	dst.TaskwaitParks += s.TaskwaitParks
	dst.IdleParks += s.IdleParks
}

// addRunLayers derives the omp, apps and core metrics of direct Run
// calls: medians over passes of each pass's totals and ratios.
func addRunLayers(rep *outcome, passes []passStats, threads int) {
	var region, tasks, overhead, steals, stealFail, parks, input, check []float64
	for _, p := range passes {
		n := float64(p.omp.TotalTasks())
		region = append(region, p.region.Seconds())
		tasks = append(tasks, n)
		overhead = append(overhead, (float64(threads)*float64(p.region)-float64(p.seq))/n)
		steals = append(steals, 1000*float64(p.omp.StealAttempts)/n)
		stealFail = append(stealFail, ratio(p.omp.StealFails, p.omp.StealAttempts))
		parks = append(parks, 1000*float64(p.omp.TaskwaitParks)/n)
		input = append(input, p.input.Seconds())
		check = append(check, p.check.Seconds())
	}
	rep.layer["omp.region_s"] = median(region)
	rep.layer["omp.tasks"] = median(tasks)
	rep.layer["omp.overhead_ns_per_task"] = median(overhead)
	rep.layer["omp.steal_attempts_per_ktask"] = median(steals)
	rep.layer["omp.steal_fail_frac"] = median(stealFail)
	rep.layer["omp.taskwait_parks_per_ktask"] = median(parks)
	rep.layer["apps.input_s"] = median(input)
	rep.layer["core.check_s"] = median(check)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
