package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/obs"
	"bots/internal/trace"
)

// Team is one parallel region's thread team: a set of workers
// executing an SPMD region body plus the explicit tasks it creates,
// with all task placement and consumption delegated to a Scheduler.
type Team struct {
	workers []*worker
	cutoff  CutoffPolicy
	sched   Scheduler
	// adv is sched's work-advertisement view, when it provides one
	// (cached type assertion; nil otherwise). runOne consults it
	// before a steal attempt so an idle worker on an empty team goes
	// straight to the park instead of sweeping P queue tops.
	adv workAdvertiser
	rec *trace.Recorder
	// fr, when non-nil, receives spawn/steal/park/wake/submit/finish
	// events (WithFlightRecorder). Every event site nil-checks it, so
	// the default configuration pays one predictable branch.
	fr *obs.FlightRecorder
	// pinWorkers makes every worker goroutine wire itself to an OS
	// thread (runtime.LockOSThread) for the region's lifetime — the
	// oversubscription/pinning lab axis (WithPinning).
	pinWorkers bool

	// Cache-line padding between the hot atomic clusters below: each
	// cluster has a distinct writer population and write rate, and
	// without separation a write to one (liveTasks, touched by every
	// spawn and finish on every core) would keep invalidating the line
	// under the read-mostly words next to it (idleWaiters, loaded on
	// every enqueue; waitParkers, loaded on every completion). The
	// padding microbench in internal/perf (pad.go) measures the
	// cross-core invalidation cost these pads remove; the separations
	// are pinned by TestPaddedLayout. The Team is allocated once per
	// region, so the size cost is irrelevant.
	_ [64]byte

	// liveTasks counts deferred tasks created and not yet finished;
	// barriers wait for it to reach zero. The hottest shared word of a
	// region: every task creation and completion writes it from
	// whichever core runs the task, so it gets a line of its own.
	liveTasks atomic.Int64
	_         [56]byte

	// Barrier state (sense-reversing, task-executing). barBells holds
	// one completion bell per barrier-generation parity: workers parked
	// at generation g block on barBells[g&1], and the completing worker
	// closes it — a closed-channel broadcast wakes *every* parker of
	// that generation and cannot be absorbed, unlike doorbell tokens,
	// which workers that already advanced to generation g+1 can drain
	// through their own spin→park cycles before a still-parked
	// generation-g worker is handed one (a real lost-wakeup observed as
	// one worker asleep at a completed barrier while the rest park at
	// the next). The slot for g+1 is re-armed by the completer of g
	// *before* barGen advances, so a generation-g+1 parker — which
	// loads its bell only after observing barGen == g+1 — always finds
	// a fresh channel; the slot being recycled belonged to g-1, whose
	// parkers all left (completing g required their arrival).
	barGen     atomic.Int64
	barArrived atomic.Int64
	barBells   [2]chan struct{}
	_          [32]byte // barrier cluster: 32 bytes of fields + pad = one line

	// Doorbell for the bounded-spin→park idle protocol: workers that
	// exhaust their spin budget register in idleWaiters and block on
	// the doorbell channel; every task enqueue and every submission
	// rings it. The channel's capacity is the team size, so a
	// non-blocking send can never lose a wake while any worker still
	// needs one (≤ n-1 parkers ⇒ a full buffer already holds a token
	// for each). Barrier completion broadcasts via barBells above, not
	// doorbell tokens. See barrier for the lost-wakeup argument.
	// idleWaiters is read-mostly: loaded by ring() on every enqueue,
	// written only at park/unpark edges — so its line stays in the
	// shared state of every core's cache as long as nothing hot is
	// co-located with it.
	idleWaiters atomic.Int32
	doorbell    chan struct{}
	_           [48]byte

	// waitBell is the futex-style park word for condition waiters —
	// taskwait, Future.Wait and Taskgroup drains. A waiter registers
	// in waitParkers, loads the current bell, re-checks its condition,
	// and blocks on the bell; every completion event that can satisfy
	// a waiter (a subtree's last child finishing, a future completing,
	// a taskgroup emptying, a dependence release) broadcasts via
	// wakeWaiters, which swaps in a fresh bell and closes the old one.
	// Broadcasts are recipient-agnostic — every parked waiter re-checks
	// its own condition — which is what lets one shared word replace
	// the old per-task mutex + lazily-allocated wake channel without
	// misdirected-token deadlocks; the close-based broadcast (rather
	// than depositing tokens) is what makes it absorption-proof. See
	// wakeWaiters for the lost-wakeup argument.
	// waitParkers is likewise read-mostly (loaded by wakeWaiters on
	// every completion that could satisfy a waiter). bellArmed marks a
	// bell some parker loaded since the last broadcast.
	waitParkers atomic.Int32
	bellArmed   atomic.Bool
	waitBell    atomic.Pointer[chan struct{}]
	_           [48]byte

	// stealScans counts constrained thieves inside a Steal call, the
	// only window in which a task is read before it is claimed; a freed
	// task is recycled at once only while it reads zero (pool.go).
	stealScans atomic.Int32
	_          [60]byte

	// Worksharing bookkeeping: per-construct-instance state, keyed by
	// each thread's private construct counter (all threads encounter
	// worksharing constructs in the same order, per OpenMP rules).
	wsMu      sync.Mutex
	wsSingles map[int64]bool
	wsLoops   map[int64]*loopState
	wsReduces map[int64]bool

	// panicVal holds the first panic raised by a task or region body;
	// Parallel re-raises it after the region completes.
	panicMu  sync.Mutex
	panicVal any
}

// TeamOpt configures a parallel region.
type TeamOpt func(*teamConfig)

type teamConfig struct {
	cutoff CutoffPolicy
	sched  Scheduler
	rec    *trace.Recorder
	fr     *obs.FlightRecorder
	pin    bool
}

// WithCutoff installs a runtime cut-off policy (default NoCutoff).
func WithCutoff(p CutoffPolicy) TeamOpt { return func(c *teamConfig) { c.cutoff = p } }

// WithScheduler selects the task scheduler by registry name; the
// empty name selects DefaultScheduler. It panics on an unknown name —
// layers that accept user input validate through NewScheduler (or
// Schedulers) first, so by the time an option list is assembled the
// name is a programming error if invalid. A scheduler instance
// belongs to one region, so the option constructs a fresh one each
// time it is applied: the same TeamOpt value may be reused across
// (even concurrent) Parallel calls.
func WithScheduler(name string) TeamOpt {
	if _, err := NewScheduler(name); err != nil {
		panic(err)
	}
	return func(c *teamConfig) {
		s, err := NewScheduler(name)
		if err != nil {
			panic(err)
		}
		c.sched = s
	}
}

// WithRecorder attaches a task-graph recorder; every task event in
// the region is recorded for later simulation.
func WithRecorder(r *trace.Recorder) TeamOpt { return func(c *teamConfig) { c.rec = r } }

// WithPinning wires each worker goroutine to its own OS thread
// (runtime.LockOSThread) for the region's — or persistent team's —
// lifetime. Go cannot bind an OS thread to a particular core, but
// locking removes goroutine migration between threads, which is the
// controllable half of CPU affinity: with GOMAXPROCS >= team size,
// each pinned worker keeps its P, its timer state, and its cache
// working set. The lab's oversubscription axis sweeps this knob
// against the Procs axis (see internal/lab and core.RunConfig).
func WithPinning(on bool) TeamOpt { return func(c *teamConfig) { c.pin = on } }

// worker is one team thread.
type worker struct {
	id   int
	team *Team
	cur  *task // task currently executing on this worker

	singleIdx int64 // private counter of single constructs encountered
	loopIdx   int64 // private counter of loop constructs encountered
	reduceIdx int64 // private counter of Reduce constructs encountered

	// Recycling lists (pool.go); owner-only.
	freeTasks []*task
	limbo     []*task
	futGrave  []futCell
	freeSuccs []*succNode

	// taskCfg is the scratch task-creation config Task/Spawn apply
	// options into; owner-only. Living in the worker (already on the
	// heap) keeps the opaque option calls from forcing a per-spawn
	// heap allocation of the config.
	taskCfg taskConfig

	// Reusable constraint predicate: runOne installs the suspended
	// tied task in predConstraint and hands schedulers predFn, so a
	// constrained pick allocates no closure. predFn is built once per
	// worker; predConstraint is only read during the synchronous
	// PopLocal/Steal calls of this worker's own runOne.
	predConstraint *task
	predFn         func(*task) bool

	stats workerStats
}

// Parallel executes body on a team of n threads, each running in its
// own goroutine, with an implicit task-executing barrier at the end
// of the region (the region returns only when every explicit task has
// completed). It returns the region's aggregated runtime statistics.
//
// Nested Parallel calls are not supported (the BOTS benchmarks do not
// use nested parallel regions); use tasks for nested parallelism.
func Parallel(n int, body func(*Context), opts ...TeamOpt) *Stats {
	if n < 1 {
		n = 1
	}
	tm, implicit := newTeam(n, opts)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := tm.workers[i]
		it := implicit[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tm.pinWorkers {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.cur = it
			func() {
				defer func() {
					if r := recover(); r != nil {
						tm.recordPanic(r)
					}
				}()
				it.ctx = Context{w: w, task: it}
				body(&it.ctx)
			}()
			// Join the final barrier even if the body panicked, so
			// the rest of the team is not wedged waiting for us.
			tm.barrier(w)
		}()
	}
	wg.Wait()
	st := tm.shutdown(implicit)
	if tm.panicVal != nil {
		panic(tm.panicVal)
	}
	return st
}

// newTeam builds the team structure shared by Parallel and
// NewPersistentTeam: n workers with their predicate closures, the
// initialized scheduler, and one implicit (depth-0) task per worker
// drawn from the global pool.
func newTeam(n int, opts []TeamOpt) (*Team, []*task) {
	cfg := teamConfig{cutoff: NoCutoff{}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.sched == nil {
		s, err := NewScheduler(DefaultScheduler)
		if err != nil {
			panic(err) // the default is registered by this package
		}
		cfg.sched = s
	}
	tm := &Team{
		cutoff:     cfg.cutoff,
		sched:      cfg.sched,
		rec:        cfg.rec,
		fr:         cfg.fr,
		pinWorkers: cfg.pin,
		doorbell:   make(chan struct{}, n),
		wsSingles:  make(map[int64]bool),
		wsLoops:    make(map[int64]*loopState),
		wsReduces:  make(map[int64]bool),
	}
	tm.barBells[0] = make(chan struct{})
	tm.barBells[1] = make(chan struct{})
	wb := make(chan struct{})
	tm.waitBell.Store(&wb)
	tm.adv, _ = cfg.sched.(workAdvertiser)
	tm.sched.Init(n)
	tm.workers = make([]*worker, n)
	implicit := make([]*task, n)
	for i := 0; i < n; i++ {
		w := &worker{id: i, team: tm}
		w.predFn = func(c *task) bool { return c.isDescendantOf(w.predConstraint) }
		tm.workers[i] = w
		it := taskPool.Get().(*task)
		it.team = tm
		if tm.rec != nil {
			it.node = tm.rec.Root()
		}
		implicit[i] = it
	}
	return tm, implicit
}

// shutdown finalizes a team after every worker goroutine has joined:
// no thief or waiter can hold a task reference anymore, so the
// workers' recycling lists drain into the global pool (pool.go) —
// including on the panic path. Returns the final aggregated stats.
func (tm *Team) shutdown(implicit []*task) *Stats {
	tm.sched.Fini()
	if regionEndHook != nil {
		regionEndHook(tm)
	}
	for i, w := range tm.workers {
		if tab := implicit[i].depTab; tab != nil {
			w.recycleDepTab(tab) // frees the region body's dependent children
		}
		w.releaseTasks()
	}
	for _, it := range implicit {
		it.reset()
		taskPool.Put(it)
	}
	return tm.aggregateStats()
}

// regionEndHook, when non-nil, observes each team after its final
// barrier and before task recycling. Tests use it to assert region
// invariants (e.g. the live-task count returning to zero).
var regionEndHook func(*Team)

// barrierSpinRounds is the bounded spin budget: consecutive empty
// probes a worker makes at a barrier before it parks on the team
// doorbell. Short enough that an idle worker stops burning its core
// (and stops hammering other workers' queue tops with failing steal
// CASes) almost immediately; long enough to ride out the common
// task-about-to-be-pushed window without a park/wake round trip.
const barrierSpinRounds = 32

// barrier is the team barrier: a scheduling point at which arriving
// workers execute queued tasks (from any queue, unconstrained) until
// every worker has arrived and no live task remains, as OpenMP
// requires of barriers.
//
// Idle protocol (bounded spin → park): after barrierSpinRounds empty
// probes the worker registers in idleWaiters, re-probes once, and
// blocks on the doorbell and this generation's barrier bell. The
// re-probe after registration is what makes the park lose no wakeups:
// an enqueuer writes its queue before loading idleWaiters, and a
// parker increments idleWaiters before reading the queues — both
// through sequentially-consistent atomics — so either the parker's
// re-probe sees the task or the enqueuer sees the registration and
// rings. Barrier completion closes the generation's bell, which
// releases every parked peer at once; a closed channel cannot be
// drained by workers that already advanced to the next generation,
// which is why completion does not use doorbell tokens (a bounded
// token supply can be absorbed by the next generation's own spin→park
// cycles, starving a still-parked worker of the old one).
func (tm *Team) barrier(w *worker) {
	w.stats.barriers.Add(1)
	n := int64(len(tm.workers))
	gen := tm.barGen.Load()
	bell := tm.barBells[gen&1]
	tm.barArrived.Add(1)
	idle := 0
	for tm.barGen.Load() == gen {
		if w.runOne(nil) {
			idle = 0
			continue
		}
		if tm.barArrived.Load() == n && tm.liveTasks.Load() == 0 {
			if tm.barArrived.CompareAndSwap(n, 0) {
				// Re-arm the next generation's bell before publishing the
				// generation change: a worker parks on barBells[g&1] only
				// after loading barGen == g, so it can never observe the
				// slot mid-recycle. Closing the current bell then wakes
				// every generation-gen parker, no matter how many.
				tm.barBells[(gen+1)&1] = make(chan struct{})
				tm.barGen.Add(1)
				close(bell)
			}
			continue
		}
		idle++
		if idle < barrierSpinRounds {
			if idle > 4 {
				runtime.Gosched()
			}
			continue
		}
		// Spin budget exhausted: park until an enqueue rings or the
		// barrier completion closes the bell. Register first, then
		// re-check every wake condition (runnable task, completable or
		// completed barrier) so no concurrent wake can be missed.
		tm.idleWaiters.Add(1)
		if w.runOne(nil) || tm.barGen.Load() != gen ||
			(tm.barArrived.Load() == n && tm.liveTasks.Load() == 0) {
			tm.idleWaiters.Add(-1)
			idle = 0
			continue
		}
		w.stats.idleParks.Add(1) // counted only when the worker truly blocks
		tm.parkOnDoorbell(w, bell)
		tm.idleWaiters.Add(-1)
		idle = 0
	}
}

// parkOnDoorbell blocks w until a doorbell token arrives (task
// enqueue, submission, shutdown) or bell is closed (barrier
// completion broadcast; pass nil when no barrier bell applies, e.g.
// the persistent team's serve loop). Wrapped in flight-recorder
// park/wake events when a recorder is attached (park carries the
// live-task count, wake the park duration in ns).
func (tm *Team) parkOnDoorbell(w *worker, bell chan struct{}) {
	fr := tm.fr
	if fr == nil {
		select {
		case <-tm.doorbell:
		case <-bell:
		}
		return
	}
	fr.Record(w.id, obs.EvPark, tm.liveTasks.Load())
	t0 := time.Now()
	select {
	case <-tm.doorbell:
	case <-bell:
	}
	fr.Record(w.id, obs.EvWake, int64(time.Since(t0)))
}

// ring wakes one parked worker, if any. Called after every task
// enqueue (see worker.enqueue). The load-then-send is cheap enough
// for the spawn hot path: with no parker registered it is a single
// atomic load.
func (tm *Team) ring() {
	if tm.idleWaiters.Load() > 0 {
		select {
		case tm.doorbell <- struct{}{}:
		default:
		}
	}
}

// ringAll deposits one doorbell token per worker — a bounded one-shot
// wake used by persistent-team shutdown (workers re-check `closed`
// and exit, never re-park) and by tests. Barrier completion does NOT
// use it: its tokens can be absorbed by workers spinning through
// later park cycles, so barriers broadcast by closing barBells
// instead (see barrier).
func (tm *Team) ringAll() {
	for range tm.workers {
		select {
		case tm.doorbell <- struct{}{}:
		default:
		}
	}
}

// wakeWaiters broadcasts to every parked condition waiter (taskwait,
// Future.Wait, Taskgroup). With no waiter registered it is a single
// atomic load — the common completion path stays as cheap as the old
// per-task signalWake's mutex-free fast path, without the per-task
// mutex + channel behind it.
//
// No-lost-wakeup argument (all atomics are sequentially consistent):
// a waiter increments waitParkers, loads the current bell, re-checks
// its wait condition, then blocks on the loaded bell; a completer
// changes the waited-on state, then loads waitParkers. If the
// waiter's re-check missed the state change, the change — and
// therefore the completer's waitParkers load — is ordered after the
// waiter's increment, so the completer observes the registration and
// broadcasts by swapping in a fresh bell and closing the one it
// replaced. The waiter loaded its bell *before* the re-check, so the
// bell it blocks on is the swapped-out one (or an even older one,
// already closed): the close reaches it. Closing — rather than
// depositing tokens — makes the broadcast absorption-proof: no
// sequence of other waiters' park/re-check cycles can consume it.
// The fresh channel is allocated only when a parker armed the current
// bell, before its re-check (DESIGN.md §9.2): a completer it missed
// sees the arming or loses its CAS to one that closes its bell.
func (tm *Team) wakeWaiters() {
	if tm.waitParkers.Load() == 0 || !tm.bellArmed.CompareAndSwap(true, false) {
		return
	}
	fresh := make(chan struct{})
	old := tm.waitBell.Swap(&fresh)
	close(*old)
}

// waitPark blocks the calling worker until the next completion
// broadcast, unless cond() already holds after registration. Callers
// loop around it re-checking their own condition: a wake proves only
// that *some* completion happened. The bell load MUST precede the
// cond() re-check — loading after would let a completer swap and
// close the old bell between the (failed) re-check and the load,
// leaving the waiter parked on a bell nobody will ever close.
func (tm *Team) waitPark(cond func() bool) {
	tm.waitParkers.Add(1)
	bell := tm.waitBell.Load()
	tm.bellArmed.Store(true)
	if cond() {
		tm.waitParkers.Add(-1)
		return
	}
	<-*bell
	tm.waitParkers.Add(-1)
}

// runOne tries to execute one ready task, honouring the OpenMP task
// scheduling constraint: when constraint is non-nil (a suspended tied
// task), only descendants of that task may run on this thread. It
// returns true if a task was executed.
//
// The pick order is the scheduler's: local area first (priority
// queue, then own queue under the scheduler's discipline), then a
// steal. The runtime only counts — every placement decision lives in
// the Scheduler.
func (w *worker) runOne(constraint *task) bool {
	var pred func(*task) bool
	if constraint != nil {
		// Reuse the worker's prebuilt predicate closure instead of
		// allocating one per call; predConstraint is only read inside
		// the synchronous scheduler calls below, so a nested runOne
		// (from a task body suspended deeper) may freely overwrite it.
		w.predConstraint = constraint
		pred = w.predFn
	}
	sched := w.team.sched
	t := sched.PopLocal(w.id, pred)
	if t == nil && len(w.team.workers) > 1 {
		// Consult the work-advertisement word before sweeping victims:
		// when no other worker advertises queued work, skip the steal
		// attempt entirely — no counter churn, no remote cache-line
		// probes — and let the caller proceed to its park. Liveness is
		// preserved because every Push sets the advertisement before
		// the doorbell ring, and every parker re-probes after
		// registering (see advMask and barrier).
		if adv := w.team.adv; adv == nil || adv.HasStealableWork(w.id) {
			w.stats.stealAttempts.Add(1)
			if pred != nil {
				w.team.stealScans.Add(1) // pred reads unclaimed tasks (pool.go)
			}
			t = sched.Steal(w.id, pred)
			if pred != nil {
				w.team.stealScans.Add(-1)
			}
			if t == nil {
				w.stats.stealFails.Add(1)
			} else if fr := w.team.fr; fr != nil {
				fr.Record(w.id, obs.EvSteal, int64(t.depth))
			}
		}
	}
	if t == nil {
		return false
	}
	w.execute(t, t.parent != nil && t.creator != w)
	return true
}

// execute runs task t to completion on w (tasks never migrate once
// started: tied semantics are the baseline, and untied tasks differ
// only in their scheduling-point flexibility). A panic in the task
// body is contained: completion bookkeeping still runs (so waiters
// and barriers are not wedged), the first panic value is recorded,
// and Parallel re-raises it after the region drains.
func (w *worker) execute(t *task, stolen bool) {
	if stolen {
		w.stats.tasksStolen.Add(1)
	}
	prev := w.cur
	w.cur = t
	defer func() {
		if r := recover(); r != nil {
			w.team.recordPanic(r)
		}
		t.finish(w)
		w.cur = prev
	}()
	t.ctx = Context{w: w, task: t}
	t.run(&t.ctx)
}

// recordPanic stores the first panic raised by any task or region
// body of the team.
func (tm *Team) recordPanic(v any) {
	tm.panicMu.Lock()
	if tm.panicVal == nil {
		tm.panicVal = v
	}
	tm.panicMu.Unlock()
}
