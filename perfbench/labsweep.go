package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/report"
	"bots/internal/sim"
	"bots/internal/trace"
)

// warmPerCold is the number of warm passes after each cold sweep.
const warmPerCold = 40

// labSetupReps is how often lab-sweep opens an empty lab for the
// set-up median. An opening takes about a third of a millisecond, so
// the median needs more of them than quickSetupReps.
const labSetupReps = 101

// labManifest is the Figure-3 sweep: the best version of every
// benchmark at 1 and 2 threads, each simulated at its own thread count
// and at 32 virtual threads.
func labManifest(class core.Class, benches ...string) lab.SweepSpec {
	return lab.SweepSpec{Benches: benches, Versions: []string{"best"}, Classes: []string{class.String()},
		Threads: []int{1, teamThreads}, Simulate: []int{0, 32}}
}

// labStack is the lab as botslab wires it for local execution: a
// Store, a CachedRunner over an in-process Executor, a one-worker
// Dispatcher, and the HTTP Server on a loopback port.
type labStack struct {
	store  *lab.Store
	exec   *lab.Executor
	cached *lab.CachedRunner
	top    lab.Runner // what the dispatcher and the renderer call
	disp   *lab.Dispatcher
	srv    *httptest.Server

	// Traced runs only: the span that lab calls made by the dispatcher
	// or the renderer nest under, and the open lab.cached_run span of
	// each job key.
	t       *tracer
	parent  atomic.Int64
	jobSpan sync.Map
	seqMu   sync.Mutex
	seqs    map[string]*core.SeqResult // baselines by bench
}

func openLab(path string, t *tracer, parent int) (*labStack, error) {
	st := &labStack{t: t, exec: lab.NewExecutor(), seqs: map[string]*core.SeqResult{}}
	var err error
	t.call("lab.store_open", path, parent, func() { st.store, err = lab.OpenStore(path) })
	if err != nil {
		return nil, err
	}
	var next lab.Runner = &lab.DirectRunner{Exec: st.exec}
	if t != nil {
		next = execRunner{st}
	}
	st.cached = lab.NewCachedRunner(st.store, next)
	st.top = st.cached
	if t != nil {
		st.top = cachedRunner{st}
	}
	st.disp = lab.NewDispatcher(st.top, 1, 1)
	server := &lab.Server{Disp: st.disp, Store: st.store, Render: report.RenderFuncFor(st.top)}
	st.srv = httptest.NewServer(server.Handler())
	return st, nil
}

func (st *labStack) close() {
	st.srv.Close()
	st.disp.Close()
	st.store.Close()
}

// cachedRunner records a lab.cached_run span around CachedRunner.Run;
// its self time is the store lookup and, on a miss, the store append.
type cachedRunner struct{ st *labStack }

func (r cachedRunner) Run(spec lab.JobSpec) (*lab.Record, error) {
	key := spec.Normalize().Key()
	id := r.st.t.open("lab.cached_run", key, int(r.st.parent.Load()))
	r.st.jobSpan.Store(key, id)
	defer r.st.t.close(id)
	return r.st.cached.Run(spec)
}

// execRunner is the DirectRunner of a traced run: it times the
// Executor's Baseline (run once per benchmark and class, then cached)
// and Execute calls.
type execRunner struct{ st *labStack }

func (r execRunner) Run(spec lab.JobSpec) (*lab.Record, error) {
	key := spec.Normalize().Key()
	parent := 0
	if id, ok := r.st.jobSpan.Load(key); ok {
		parent = id.(int)
	}
	b, err := core.Get(spec.Bench)
	if err != nil {
		return nil, err
	}
	class, err := core.ParseClass(spec.Class)
	if err != nil {
		return nil, err
	}
	var seq *core.SeqResult
	r.st.t.call("lab.baseline", spec.Bench+"/"+spec.Class, parent, func() { seq, err = r.st.exec.Baseline(b, class) })
	if err != nil {
		return nil, err
	}
	r.st.seqMu.Lock()
	r.st.seqs[spec.Bench] = seq
	r.st.seqMu.Unlock()
	var rec *lab.Record
	r.st.t.call("lab.execute", key, parent, func() { rec, err = r.st.exec.Execute(spec) })
	return rec, err
}

// submit posts a manifest to the lab's HTTP API and returns the sweep
// id.
func (st *labStack) submit(spec lab.SweepSpec, parent int) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	var status lab.SweepStatus
	st.t.call("lab.http_submit", strings.Join(spec.Benches, ","), parent, func() {
		var resp *http.Response
		resp, err = st.srv.Client().Post(st.srv.URL+"/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			err = fmt.Errorf("POST /sweeps: %s: %s", resp.Status, msg)
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
	})
	return status.ID, err
}

// follow streams a sweep's progress until it finishes and returns the
// last status.
func (st *labStack) follow(id string) (lab.SweepStatus, error) {
	var last lab.SweepStatus
	resp, err := st.srv.Client().Get(st.srv.URL + "/sweeps/" + id + "?follow=true")
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("GET /sweeps/%s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var s lab.SweepStatus
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return last, fmt.Errorf("following sweep %s: %w", id, err)
		}
		last = s
	}
	if !last.Finished() || last.Failed+last.Cancelled > 0 {
		return last, fmt.Errorf("sweep %s ended with %d of %d done, %d failed, %d cancelled",
			id, last.Done, last.Total, last.Failed, last.Cancelled)
	}
	return last, nil
}

// coldStats is what one traced cold sweep measured.
type coldStats struct {
	wall              time.Duration
	baseline, execute time.Duration
	runner            time.Duration // inside CachedRunner.Run
	storePut          time.Duration
	storeBytes        int64
	seqs              map[string]*core.SeqResult
}

// labSweep runs cold sweeps from an empty store through the lab HTTP
// API, each followed by warm passes that reopen the store, re-submit
// the manifest (all cache hits) and render Figure 3, until the run's
// time is up. A traced run alternates untraced and traced iterations
// and, after each traced sweep, probes the trace and sim layers.
func labSweep(cfg config) (*outcome, error) {
	class := core.Small
	if cfg.tiny {
		class = core.Test
	}
	rep := newOutcome()
	tr := cfg.tracer()
	rng := cfg.rng()
	expected, err := labManifest(class, "all").Expand()
	if err != nil {
		return nil, err
	}
	var benches []string
	for _, b := range core.All() {
		benches = append(benches, b.Name)
	}

	// Set-up: opening an empty lab. A freshly started lab opens before
	// its first collection, so the openings run with the collector
	// off: otherwise some of them overlapped a concurrent collection
	// and the median jumped between the two groups from run to run.
	var setups []time.Duration
	gcPercent := debug.SetGCPercent(-1)
	for r := 0; r < labSetupReps; r++ {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d.jsonl", r))
		start := time.Now()
		st, err := openLab(path, nil, 0)
		if err != nil {
			debug.SetGCPercent(gcPercent)
			return nil, err
		}
		setups = append(setups, time.Since(start))
		st.close()
	}
	debug.SetGCPercent(gcPercent)

	var (
		walls, tracedWalls []time.Duration
		warm               []time.Duration
		colds              []coldStats
		probes             []probeStats
		warmOpen, render   []time.Duration
		warmHits, warmMiss int64
		warmExec           int64
		deadline           = time.Now().Add(cfg.duration())
	)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr // a traced run alternates untraced and traced iterations
		}
		path := filepath.Join(cfg.workDir, fmt.Sprintf("cold-%d.jsonl", i))
		order := append([]string(nil), benches...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

		runtime.GC() // so no sweep pays for collecting the previous one's garbage
		mark := t.mark()
		cs, err := coldSweep(path, class, order, expected, t, strconv.Itoa(i), rep)
		if err != nil {
			return nil, err
		}
		if t == nil {
			walls = append(walls, cs.wall)
		} else {
			tracedWalls = append(tracedWalls, cs.wall)
			stats := byName(t.since(mark))
			cs.baseline = totalOf(stats, "lab.baseline")
			cs.execute = totalOf(stats, "lab.execute")
			cs.runner = totalOf(stats, "lab.cached_run")
			if st := stats["lab.cached_run"]; st != nil {
				cs.storePut = st.self
			}
			colds = append(colds, cs)
			p, err := probe(class, order, cs.seqs, t, rep)
			if err != nil {
				return nil, err
			}
			probes = append(probes, p)
		}

		for w := 0; w < warmPerCold; w++ {
			op := fmt.Sprintf("%d.%d", i, w)
			// A warm pass is what a freshly started lab does, so it
			// starts from a collected heap: collecting the previous
			// pass's garbage runs on both cores and made the pass's
			// time follow how busy the host was.
			runtime.GC()
			mark := t.mark()
			root := t.open("bench.warm", op, 0)
			start := time.Now()
			st, err := openLab(path, t, root)
			if err != nil {
				return nil, err
			}
			err = warmPass(st, class, expected, root)
			warm = append(warm, time.Since(start))
			t.close(root)
			warmHits += st.cached.Hits()
			warmMiss += st.cached.Misses()
			warmExec += st.exec.Executions()
			st.close()
			rep.check("warm pass "+op, err)
			if t != nil {
				stats := byName(t.since(mark))
				warmOpen = append(warmOpen, totalOf(stats, "lab.store_open"))
				render = append(render, totalOf(stats, "report.render"))
			}
		}
	}

	rep.e2e["setup_s"] = median(seconds(setups))
	rep.e2e["wall_s"] = median(seconds(walls))
	rep.e2e["latency_p50_ms"] = quantile(millis(warm), 0.5)
	if !cfg.traced {
		return rep, nil
	}

	var baseline, execute, queue, put, storeBytes []float64
	seqS := map[string][]float64{}
	for _, c := range colds {
		baseline = append(baseline, c.baseline.Seconds())
		execute = append(execute, c.execute.Seconds())
		queue = append(queue, (c.wall - c.runner).Seconds())
		put = append(put, c.storePut.Seconds())
		storeBytes = append(storeBytes, float64(c.storeBytes))
		for name, s := range c.seqs {
			seqS[name] = append(seqS[name], s.Elapsed.Seconds())
		}
	}
	var seqTotal float64
	for _, name := range benches {
		s := median(seqS[name])
		rep.layer["apps."+name+".seq_s"] = s
		seqTotal += s
	}
	rep.layer["apps.seq_s"] = seqTotal
	rep.layer["lab.baseline_s"] = median(baseline)
	rep.layer["lab.execute_s"] = median(execute)
	rep.layer["lab.queue_s"] = median(queue)
	rep.layer["lab.store_put_s"] = median(put)
	rep.layer["lab.store_bytes"] = median(storeBytes)
	rep.layer["lab.store_open_s"] = median(seconds(warmOpen))
	rep.layer["lab.warm_hit_frac"] = ratio(warmHits, warmHits+warmMiss)
	rep.layer["lab.warm_executions"] = float64(warmExec)
	rep.layer["report.render_s"] = median(seconds(render))
	addProbeLayers(rep, probes)
	rep.layer["trace_overhead_frac"] = median(seconds(tracedWalls))/median(seconds(walls)) - 1
	rep.spans = tr.snapshot()
	rep.addSelfTimes()
	return rep, nil
}

// coldSweep opens an empty lab at path, submits the manifest as one
// sweep per benchmark in the given order, and waits until every cell
// is stored. It checks that the stored keys are exactly the expanded
// manifest's and that every record verified.
func coldSweep(path string, class core.Class, order []string, expected []lab.JobSpec,
	t *tracer, op string, rep *outcome) (coldStats, error) {
	st, err := openLab(path, t, 0)
	if err != nil {
		return coldStats{}, err
	}
	defer st.close()
	root := t.open("bench.cold_sweep", op, 0)
	st.parent.Store(int64(root))
	start := time.Now()
	var ids []string
	for _, bench := range order {
		id, err := st.submit(labManifest(class, bench), root)
		if err != nil {
			return coldStats{}, err
		}
		ids = append(ids, id)
	}
	var followErr error
	for _, id := range ids {
		if _, err := st.follow(id); err != nil && followErr == nil {
			followErr = err
		}
	}
	cs := coldStats{wall: time.Since(start), seqs: st.seqs}
	t.close(root)

	stored := map[string]*lab.Record{}
	for _, r := range st.store.Records() {
		stored[r.Key] = r
	}
	for _, j := range expected {
		r, ok := stored[j.Key()]
		var err error
		switch {
		case followErr != nil:
			err = followErr
		case !ok:
			err = fmt.Errorf("cell not stored")
		case !r.Verified:
			err = fmt.Errorf("verification failed: %s", r.VerifyError)
		}
		rep.check(fmt.Sprintf("cold sweep %s %s/%s threads=%d sim=%d", op, j.Bench, j.Version, j.Threads, j.Simulate), err)
		delete(stored, j.Key())
	}
	for key := range stored {
		rep.check("cold sweep "+op+" "+key, fmt.Errorf("stored a cell the manifest does not name"))
	}
	if fi, err := os.Stat(path); err == nil {
		cs.storeBytes = fi.Size()
	}
	return cs, nil
}

// warmPass re-submits the manifest to a reopened lab and renders
// Figure 3 from the cache. Every cell must be a cache hit.
func warmPass(st *labStack, class core.Class, expected []lab.JobSpec, root int) error {
	st.parent.Store(int64(root))
	id, err := st.submit(labManifest(class, "all"), root)
	if err != nil {
		return err
	}
	status, err := st.follow(id)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	renderSpan := st.t.open("report.render", "fig3", root)
	st.parent.Store(int64(renderSpan))
	err = report.Fig3(st.top, &out, class, []int{1, teamThreads})
	st.t.close(renderSpan)
	misses, execs := st.cached.Misses(), st.exec.Executions()
	switch {
	case err != nil:
		return err
	case status.Done != len(expected):
		return fmt.Errorf("re-submitted sweep did %d of %d cells", status.Done, len(expected))
	case misses != 0 || execs != 0:
		return fmt.Errorf("warm pass missed the cache %d times and executed %d cells", misses, execs)
	case !strings.Contains(out.String(), "Figure 3"):
		return fmt.Errorf("Figure 3 did not render: %q", out.String())
	}
	return nil
}

// probeStats is what one probe of the trace and sim layers measured.
type probeStats struct {
	run                  passStats // the unrecorded runs
	recordedRegion       time.Duration
	finish, analyze, sim time.Duration
	tasks                int
	predErr              map[string]float64
}

// probe runs each benchmark's best version on teamThreads threads
// twice, unrecorded and recorded, then finishes, validates, analyzes
// and simulates the recorded trace as the lab Executor does; the
// calls are timed here, outside the program.
func probe(class core.Class, order []string, seqs map[string]*core.SeqResult, t *tracer, rep *outcome) (probeStats, error) {
	p := probeStats{predErr: map[string]float64{}}
	for _, name := range order {
		b, err := core.Get(name)
		if err != nil {
			return p, err
		}
		seq := seqs[name]
		if seq == nil {
			return p, fmt.Errorf("probe %s: no baseline from the sweep", name)
		}
		root := t.open("bench.probe", name, 0)
		cfg := core.RunConfig{Class: class, Version: b.BestVersion, Threads: teamThreads}

		start := time.Now()
		res, err := b.Run(cfg)
		d := time.Since(start)
		id := t.add("apps.run", name, root, start, start.Add(d))
		if err != nil {
			rep.check("probe "+name, err)
			t.close(root)
			continue
		}
		t.addPlaced("omp.region", name, id, res.Elapsed)
		p.run.region += res.Elapsed
		p.run.input += d - res.Elapsed
		p.run.seq += seq.Elapsed
		addStats(&p.run.omp, res.Stats)
		p.run.check += t.call("core.check", name, root, func() { err = b.Check(seq, res) })
		rep.check("probe "+name, err)

		cfg.Recorder = trace.NewRecorder()
		start = time.Now()
		recRes, err := b.Run(cfg)
		d = time.Since(start)
		id = t.add("apps.run", name+"/recorded", root, start, start.Add(d))
		if err == nil {
			t.addPlaced("omp.region", name+"/recorded", id, recRes.Elapsed)
			p.recordedRegion += recRes.Elapsed
			err = b.Check(seq, recRes)
		}
		rep.check("probe "+name+" recorded", err)
		if err != nil {
			t.close(root)
			continue
		}

		var tra *trace.Trace
		p.finish += t.call("trace.finish", name, root, func() {
			tra = cfg.Recorder.Finish()
			err = tra.Validate()
		})
		rep.check("probe "+name+" trace", err)
		if err != nil {
			t.close(root)
			continue
		}
		p.tasks += tra.NumTasks()
		p.analyze += t.call("trace.analyze", name, root, func() { trace.Analyze(tra) })

		params := sim.DefaultOverheads()
		params.WorkUnitNS = math.Max(1, float64(seq.Elapsed.Nanoseconds())/float64(seq.Work))
		params.MemFraction = b.Profile.MemFraction
		params.BandwidthCap = b.Profile.BandwidthCap
		p.sim += t.call("sim.run", name+"@32", root, func() { _, err = sim.Run(tra, 32, params) })
		var sim2 sim.Result
		if err == nil {
			t.call("sim.run", name+"@2", root, func() { sim2, err = sim.Run(tra, teamThreads, params) })
		}
		rep.check("probe "+name+" simulation", err)
		if err == nil {
			measured := seq.Elapsed.Seconds() / res.Elapsed.Seconds()
			p.predErr[name] = math.Abs(sim2.Speedup-measured) / measured
		}
		t.close(root)
	}
	return p, nil
}

// addProbeLayers derives the omp, apps, core, trace and sim metrics of
// the lab-sweep probes: medians over probes.
func addProbeLayers(rep *outcome, probes []probeStats) {
	var runs []passStats
	var tax, finish, analyze, tasks, simS, simNS []float64
	predErr := map[string][]float64{}
	for _, p := range probes {
		runs = append(runs, p.run)
		tax = append(tax, float64(p.recordedRegion)/float64(p.run.region))
		finish = append(finish, p.finish.Seconds())
		analyze = append(analyze, p.analyze.Seconds())
		tasks = append(tasks, float64(p.tasks))
		simS = append(simS, p.sim.Seconds())
		simNS = append(simNS, float64(p.sim)/float64(p.tasks))
		for name, e := range p.predErr {
			predErr[name] = append(predErr[name], e)
		}
	}
	addRunLayers(rep, runs, teamThreads)
	rep.layer["trace.record_tax"] = median(tax)
	rep.layer["trace.finish_s"] = median(finish)
	rep.layer["trace.analyze_s"] = median(analyze)
	rep.layer["trace.tasks"] = median(tasks)
	rep.layer["sim.run_s"] = median(simS)
	rep.layer["sim.ns_per_task"] = median(simNS)
	for name, errs := range predErr {
		rep.layer["sim."+name+".pred_err"] = median(errs)
	}
}
