package health

import (
	"bots/internal/core"
	"bots/internal/omp"
)

// Service-mode hooks: internal/serve drives the health simulation as a
// per-request task DAG on a persistent team, outside the Benchmark
// registry's Parallel-region entry points. A request builds a fresh
// village tree, simulates the class's timesteps with the manual-cutoff
// task scheme, and verifies the digest against the deterministic
// sequential reference (§III-B's indeterminism control makes the two
// digests equal for every schedule).

// BuildClass constructs the deterministic hierarchy for class.
func BuildClass(class core.Class) *Village { return Build(classParams[class]) }

// Steps returns the simulated timestep count for class.
func Steps(class core.Class) int { return classParams[class].steps }

// Simulate runs steps timesteps of the task-parallel simulation
// (manual cut-off at cutoffLevel) on the subtree rooted at v. It must
// run inside a task region — an explicit task or a persistent-team
// submission — and returns when the subtree is fully simulated.
func Simulate(c *omp.Context, v *Village, steps, cutoffLevel int) {
	for t := 0; t < steps; t++ {
		parSim(c, v, cutoffLevel, serveOpts)
	}
}

// serveOpts is the service mode's fixed task-clause set (manual
// cut-off, tied), shared by every request.
var serveOpts = core.NewTaskOpts(core.Variant{Cutoff: "manual"}, capturedBytes)

// SeqSimulate runs steps timesteps of the sequential reference
// simulation on the subtree rooted at v.
func SeqSimulate(v *Village, steps int) {
	for t := 0; t < steps; t++ {
		seqSim(v)
	}
}

// Digest returns the verification digest of the tree's aggregate
// statistics.
func Digest(v *Village) string { return digest(v) }
