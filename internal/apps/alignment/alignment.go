// Package alignment implements the BOTS Alignment benchmark: all
// protein sequences from an input set are aligned against every other
// sequence, and the best score for each pair is produced. The scoring
// method is a full dynamic-programming algorithm with a weight matrix
// for mismatches and affine penalties for opening and extending gaps
// (Gotoh's formulation, score-equivalent to the Myers–Miller forward
// pass used by the original code; see DESIGN.md for the
// substitution).
//
// The parallelization mirrors the original: the outer loop is an omp
// for worksharing construct and a task is created per pair inside it,
// letting the implementation split iterations when threads outnumber
// rows or when the triangular iteration space causes imbalance. As in
// the BOTS port, all temporary DP state is task-local so that the
// untied version is safe.
package alignment

import (
	"fmt"
	"hash/fnv"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0xA119A914

// sizes per class: number of sequences and length band.
type params struct {
	n, minLen, maxLen int
}

var classParams = map[core.Class]params{
	core.Test:   {12, 30, 90},
	core.Small:  {24, 60, 180},
	core.Medium: {40, 80, 300},
	core.Large:  {64, 100, 400},
}

// Affine gap penalties (positive costs, subtracted).
const (
	gapOpen   = 10
	gapExtend = 1
	negInf    = int32(-1 << 29)
)

const capturedBytes = 56 // two sequence headers + result pointer

// weight is the 20×20 substitution matrix: a deterministic symmetric
// matrix with positive diagonal (matches) and mixed mismatch scores,
// standing in for the PAM/BLOSUM table of the original input files.
var weight [20][20]int32

func init() {
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i == j {
				weight[i][j] = 5
			} else {
				// Symmetric, in [-4, +1], deterministic.
				lo, hi := i, j
				if lo > hi {
					lo, hi = hi, lo
				}
				weight[i][j] = int32((lo*31+hi*17)%6) - 4
			}
		}
	}
}

// aaIndex maps an amino-acid letter to its matrix row.
var aaIndex [256]int8

func init() {
	for i := range aaIndex {
		aaIndex[i] = -1
	}
	for i, c := range "ARNDCQEGHILKMFPSTWYV" {
		aaIndex[c] = int8(i)
	}
}

// Score computes the global alignment score of a and b with affine
// gaps (Gotoh). It returns the score and the work performed (DP cells
// computed). All state is local, so it is safe for concurrent calls.
func Score(a, b []byte) (int32, int64) {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return -int32(gapOpen) - int32(gapExtend*(la+lb)), int64(la + lb + 1)
	}
	// m[j]: best score ending at (i, j) with a[i] aligned to b[j] or
	// any state; ix: gap in b (vertical); iy: gap in a (horizontal).
	m := make([]int32, lb+1)
	ix := make([]int32, lb+1)
	iy := make([]int32, lb+1)
	m[0] = 0
	ix[0], iy[0] = negInf, negInf
	for j := 1; j <= lb; j++ {
		iy[j] = -int32(gapOpen) - int32(gapExtend*j)
		m[j] = negInf
		ix[j] = negInf
	}
	for i := 1; i <= la; i++ {
		diagM, diagIx, diagIy := m[0], ix[0], iy[0]
		m[0] = negInf
		ix[0] = -int32(gapOpen) - int32(gapExtend*i)
		iy[0] = negInf
		ca := aaIndex[a[i-1]]
		for j := 1; j <= lb; j++ {
			oldM, oldIx, oldIy := m[j], ix[j], iy[j]
			w := weight[ca][aaIndex[b[j-1]]]
			best := diagM
			if diagIx > best {
				best = diagIx
			}
			if diagIy > best {
				best = diagIy
			}
			m[j] = best + w
			// ix: gap in b — come from row above.
			openIx := maxi32(oldM-gapOpen-gapExtend, oldIx-gapExtend)
			ix[j] = openIx
			// iy: gap in a — come from the left in this row.
			iy[j] = maxi32(m[j-1]-gapOpen-gapExtend, iy[j-1]-gapExtend)
			diagM, diagIx, diagIy = oldM, oldIx, oldIy
		}
	}
	return maxi32(m[lb], maxi32(ix[lb], iy[lb])), int64(la) * int64(lb)
}

func maxi32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// pairIndex returns the flat index of pair (i, j), i < j, among the
// n(n−1)/2 pairs.
func pairIndex(n, i, j int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// SeqAlign scores every pair sequentially; returns the score vector
// and work.
func SeqAlign(seqs [][]byte) ([]int32, int64) {
	n := len(seqs)
	scores := make([]int32, n*(n-1)/2)
	var work int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s, w := Score(seqs[i], seqs[j])
			scores[pairIndex(n, i, j)] = s
			work += w
		}
	}
	return scores, work
}

func digest(scores []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range scores {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	p := classParams[class]
	seqs := inputs.Proteins(p.n, p.minLen, p.maxLen, inputSeed)
	start := time.Now()
	scores, work := SeqAlign(seqs)
	elapsed := time.Since(start)
	var bytes int64
	for _, s := range seqs {
		bytes += int64(len(s))
	}
	return &core.SeqResult{
		Digest:   digest(scores),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: bytes + int64(len(scores))*4,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	p := classParams[cfg.Class]
	seqs := inputs.Proteins(p.n, p.minLen, p.maxLen, inputSeed)
	n := len(seqs)
	scores := make([]int32, n*(n-1)/2)
	opts := core.NewTaskOpts(variant, capturedBytes).Plain()
	pairTask := func(c *omp.Context, i, j int) {
		c.Task(func(c *omp.Context) {
			s, w := Score(seqs[i], seqs[j])
			scores[pairIndex(n, i, j)] = s
			c.AddWork(w)
			c.AddWrites(3*w, 1) // DP rows are task-local; only the result is shared
		}, opts...)
	}
	start := time.Now()
	var st *omp.Stats
	if variant.Generator == "single" {
		// The released suite's alignment_single variant: one thread
		// generates all pair tasks from inside a single construct.
		st = omp.Parallel(cfg.Threads, func(c *omp.Context) {
			c.Single(func(c *omp.Context) {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						pairTask(c, i, j)
					}
				}
			})
		}, cfg.TeamOpts()...)
	} else {
		// The paper's structure (alignment_for): tasks nested inside
		// an omp for over the outer loop, dynamic schedule to absorb
		// the triangular imbalance.
		st = omp.Parallel(cfg.Threads, func(c *omp.Context) {
			c.For(0, n, func(c *omp.Context, i int) {
				for j := i + 1; j < n; j++ {
					pairTask(c, i, j)
				}
			}, omp.WithSchedule(omp.Dynamic, 1))
		}, cfg.TeamOpts()...)
	}
	elapsed := time.Since(start)
	return &core.RunResult{Digest: digest(scores), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "alignment",
		Origin:         "AKM",
		Domain:         "Dynamic programming",
		Structure:      "Iterative",
		TaskDirectives: 1,
		TasksInside:    "for",
		NestedTasks:    false,
		AppCutoff:      "none",
		Versions:       []string{"tied", "untied", "single-tied", "single-untied"},
		BestVersion:    "untied",
		Profile:        core.Profile{MemFraction: 0.05, BandwidthCap: 32},
		Seq:            seqRun,
		Run:            parRun,
	})
}
