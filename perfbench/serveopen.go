package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
	"bots/internal/serve"
)

const (
	// openRate is phase A's mean arrival rate, about a sixth of the
	// health service's closed-loop capacity on two workers: workers
	// park between requests, so inbox and wake latency set the
	// latency. At a third of capacity the run-to-run spread of the
	// median latency was several times wider on a 2-CPU host.
	openRate = 300.0
	// openShare is the part of the run's time given to phase A.
	openShare = 0.6
	// closedOutstanding is phase B's number of requests in flight.
	closedOutstanding = 4
	// closedBatch is the number of requests one phase-B batch completes.
	closedBatch = 500
	// serveCycle is the life of one team: phase A, then phase B.
	serveCycle = 4 * time.Second
	// maxInflight is phase A's admission cap, serve.Run's default; an
	// arrival beyond it is refused and counts as failed.
	maxInflight = 64 * teamThreads
)

// request holds one request's timestamps, taken around each call.
type request struct {
	sched            time.Time // scheduled arrival
	fired            time.Time // the generator woke for it
	built, submitted time.Time // NewRequest returned, SubmitDetached returned
	start, bodyEnd   time.Time // root task began, DAG joined
	verified, end    time.Time // verify returned, completion callback ran
	ok               bool
}

// serveOpen drives the health service DAG on persistent teams. The
// run is a series of cycles, each on a fresh team: phase A is an open
// loop of Poisson arrivals at openRate, timed from each request's
// scheduled arrival; phase B is a closed loop keeping
// closedOutstanding requests in flight, timed per batch of
// closedBatch. A fresh team per cycle lets one run sample several
// placements of the team's threads. A traced run records the request
// spans of phase A and alternates untraced and traced batches in
// phase B.
func serveOpen(cfg config) (*outcome, error) {
	class := core.Test
	rep := newOutcome()
	tr := cfg.tracer()
	rng := cfg.rng()
	w, err := serve.LookupWorkload("health")
	if err != nil {
		return nil, err
	}

	// Set-up: preparing the workload (inputs and the sequential
	// reference digest) and starting a team, taken quickSetupReps times
	// for a median.
	var (
		setups, prepares []time.Duration
		prep             *serve.Prepared
	)
	for r := 0; r < quickSetupReps; r++ {
		op := strconv.Itoa(r)
		start := time.Now()
		prepares = append(prepares, tr.call("serve.prepare", op, 0, func() { prep, err = w.Prepare(class, -1) }))
		if err != nil {
			return nil, err
		}
		var pt *omp.PersistentTeam
		tr.call("omp.team_start", op, 0, func() { pt = omp.NewPersistentTeam(teamThreads) })
		setups = append(setups, time.Since(start))
		pt.Close()
	}

	cycle, batch := serveCycle, closedBatch
	if cfg.tiny {
		cycle, batch = cfg.duration(), 50
	}
	var (
		reqs          []*request
		stats         omp.Stats // phase A's team counters
		plain, traced []time.Duration
		deadline      = time.Now().Add(cfg.duration())
	)
	for c := 0; c == 0 || time.Now().Before(deadline); c++ {
		pt := omp.NewPersistentTeam(teamThreads)
		begin := time.Now()
		before := pt.Stats()
		reqs = append(reqs, openLoop(pt, prep, rng, time.Duration(float64(cycle)*openShare), rep)...)
		d := pt.Stats().Sub(before)
		addStats(&stats, &d)
		for b := 0; b < 2 || time.Since(begin) < cycle; b++ {
			var t *tracer
			if b%2 == 1 {
				t = tr // a traced run alternates untraced and traced batches
			}
			wall := closedLoop(pt, prep, batch, t, fmt.Sprintf("b%d.%d", c, b), rep)
			if t != nil {
				traced = append(traced, wall)
			} else {
				plain = append(plain, wall)
			}
		}
		pt.Close()
	}

	var latency, queue, service, late, submit []time.Duration
	for i, r := range reqs {
		rep.check("open-loop request "+strconv.Itoa(i), verifyErr(r.ok))
		latency = append(latency, r.end.Sub(r.sched))
		queue = append(queue, r.start.Sub(r.sched))
		service = append(service, r.end.Sub(r.start))
		late = append(late, r.fired.Sub(r.sched))
		submit = append(submit, r.submitted.Sub(r.built))
		addRequestSpans(tr, "a"+strconv.Itoa(i), r)
	}

	rep.e2e["setup_s"] = median(seconds(setups))
	rep.e2e["wall_s"] = median(seconds(plain))
	rep.e2e["latency_p50_ms"] = quantile(millis(latency), 0.5)
	if !cfg.traced {
		return rep, nil
	}
	n := float64(stats.TotalTasks())
	rep.layer["omp.tasks"] = n
	rep.layer["omp.steal_attempts_per_ktask"] = 1000 * float64(stats.StealAttempts) / n
	rep.layer["omp.steal_fail_frac"] = ratio(stats.StealFails, stats.StealAttempts)
	rep.layer["omp.taskwait_parks_per_ktask"] = 1000 * float64(stats.TaskwaitParks) / n
	rep.layer["omp.idle_parks_per_req"] = float64(stats.IdleParks) / float64(len(reqs))
	rep.layer["omp.submit_ns"] = float64(quantile(nanos(submit), 0.5))
	rep.layer["serve.prepare_s"] = median(seconds(prepares))
	rep.layer["serve.queue_p50_ms"] = quantile(millis(queue), 0.5)
	rep.layer["serve.queue_p99_ms"] = quantile(millis(queue), 0.99)
	rep.layer["serve.service_p50_ms"] = quantile(millis(service), 0.5)
	rep.layer["serve.service_p99_ms"] = quantile(millis(service), 0.99)
	rep.layer["serve.latency_p99_ms"] = quantile(millis(latency), 0.99)
	rep.layer["serve.gen_late_p99_ms"] = quantile(millis(late), 0.99)
	rep.layer["trace_overhead_frac"] = median(seconds(traced))/median(seconds(plain)) - 1
	rep.spans = tr.snapshot()
	rep.addSelfTimes()
	return rep, nil
}

// openLoop submits Poisson arrivals at openRate to pt for the given
// time and waits until every admitted request has completed. An
// arrival that finds maxInflight requests in flight is refused.
func openLoop(pt *omp.PersistentTeam, prep *serve.Prepared, rng *rand.Rand, dur time.Duration, rep *outcome) []*request {
	var (
		reqs     []*request
		inflight atomic.Int64
		wg       sync.WaitGroup
		begin    = time.Now()
		next     = begin.Add(expGap(rng.ExpFloat64()))
	)
	for next.Before(begin.Add(dur)) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() >= maxInflight {
			rep.check("open-loop arrival", fmt.Errorf("refused: %d requests in flight", maxInflight))
			next = next.Add(expGap(rng.ExpFloat64()))
			continue
		}
		r := &request{sched: next, fired: time.Now()}
		body, verify := prep.NewRequest()
		r.built = time.Now()
		inflight.Add(1)
		wg.Add(1)
		pt.SubmitDetached(func(c *omp.Context) {
			r.start = time.Now()
			body(c)
			r.bodyEnd = time.Now()
			r.ok = verify()
			r.verified = time.Now()
		}, func() {
			r.end = time.Now()
			inflight.Add(-1)
			wg.Done()
		})
		r.submitted = time.Now()
		reqs = append(reqs, r)
		next = next.Add(expGap(rng.ExpFloat64()))
	}
	wg.Wait()
	return reqs
}

// expGap turns a unit exponential variate into a phase-A gap.
func expGap(e float64) time.Duration { return time.Duration(e / openRate * float64(time.Second)) }

func verifyErr(ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("result differs from the sequential reference")
}

func nanos(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// closedLoop completes n requests, submitting the next one whenever
// one of closedOutstanding finishes, and returns the batch's wall time.
// With a tracer it records each request's spans after the batch.
func closedLoop(pt *omp.PersistentTeam, prep *serve.Prepared, n int, t *tracer, op string, rep *outcome) time.Duration {
	slots := make(chan struct{}, closedOutstanding) // a semaphore
	for i := 0; i < closedOutstanding; i++ {
		slots <- struct{}{}
	}
	reqs := make([]request, n)
	traced := t != nil
	start := time.Now()
	for i := range reqs {
		<-slots
		r := &reqs[i]
		if traced {
			r.fired = time.Now()
			r.sched = r.fired
		}
		body, verify := prep.NewRequest()
		if traced {
			r.built = time.Now()
		}
		pt.SubmitDetached(func(c *omp.Context) {
			if traced {
				r.start = time.Now()
			}
			body(c)
			if traced {
				r.bodyEnd = time.Now()
			}
			r.ok = verify()
			if traced {
				r.verified = time.Now()
			}
		}, func() {
			if traced {
				r.end = time.Now()
			}
			slots <- struct{}{}
		})
		if traced {
			r.submitted = time.Now()
		}
	}
	for i := 0; i < closedOutstanding; i++ {
		<-slots
	}
	wall := time.Since(start)
	for i := range reqs {
		rep.check("closed-loop request "+op+"."+strconv.Itoa(i), verifyErr(reqs[i].ok))
		if traced {
			addRequestSpans(t, op+"."+strconv.Itoa(i), &reqs[i])
		}
	}
	return wall
}

// addRequestSpans records one request's spans: the request itself,
// from scheduled arrival to completion, and the calls made for it.
// The gap between omp.submit and apps.body is the wait in the team's
// inbox; the tail after serve.verify is the completion path.
func addRequestSpans(t *tracer, op string, r *request) {
	if t == nil {
		return
	}
	root := t.add("bench.request", op, 0, r.sched, r.end)
	t.add("serve.new_request", op, root, r.fired, r.built)
	t.add("omp.submit", op, root, r.built, r.submitted)
	t.add("apps.body", op, root, r.start, r.bodyEnd)
	t.add("serve.verify", op, root, r.bodyEnd, r.verified)
}
