// Package fdr implements the multiple-hypothesis-testing corrections at
// the heart of the paper: the Benjamini–Hochberg False Discovery Rate
// step-up procedure (and the Benjamini–Yekutieli variant for dependent
// tests), plus the baselines the paper contrasts it with — no
// correction and Bonferroni.
//
// Every procedure consumes a vector of p-values (one per hypothesis,
// e.g. one per sensor) and a target level, and returns the set of
// rejected hypotheses. Adjusted p-values are also exposed so callers can
// rank anomalies for the visualization layer.
//
// # Scratch reuse
//
// The online evaluator corrects one family per sensor row per tick, so
// this package is on the paper's §IV-A hot path. ApplyInto is the
// allocation-free entry point: the caller owns a Result and a Scratch,
// both of whose buffers are recycled call over call, and steady-state
// application performs zero heap allocations. Apply remains the
// convenient wrapper that allocates a fresh Result per call (its
// internal scratch is pooled). A Result filled by ApplyInto is only
// valid until the next ApplyInto call with the same Result; callers who
// retain it across calls must copy the slices they keep.
package fdr

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ErrBadLevel reports a target level outside (0, 1).
var ErrBadLevel = errors.New("fdr: level must be in (0,1)")

// Procedure names a multiple-testing correction.
type Procedure int

// The supported procedures. The zero value is BH, the paper's choice,
// so an unset Procedure means Benjamini–Hochberg and every other
// procedure, Uncorrected included, is an explicit choice.
const (
	BH          Procedure = iota // Benjamini–Hochberg step-up (FDR control)
	BY                           // Benjamini–Yekutieli (FDR under dependency)
	Uncorrected                  // reject p ≤ α per test; no correction
	Bonferroni                   // reject p ≤ α/m (FWER control)
)

// Procedures lists every supported procedure in presentation order.
var Procedures = []Procedure{Uncorrected, Bonferroni, BH, BY}

// String implements fmt.Stringer.
func (p Procedure) String() string {
	switch p {
	case Uncorrected:
		return "uncorrected"
	case Bonferroni:
		return "bonferroni"
	case BH:
		return "benjamini-hochberg"
	case BY:
		return "benjamini-yekutieli"
	default:
		return fmt.Sprintf("Procedure(%d)", int(p))
	}
}

// Result is the outcome of applying a procedure to a family of
// p-values.
type Result struct {
	Procedure Procedure
	Level     float64
	Rejected  []bool    // Rejected[i] == true ⇒ hypothesis i is flagged
	Adjusted  []float64 // adjusted p-values, comparable to Level
	NumReject int
}

// Scratch holds the reusable working set for ApplyInto: the cleaned
// (p-value, index) pairs the sorted procedures order, and the sorted
// adjusted-value buffer. The zero value is ready to use; buffers grow on
// demand and are retained between calls. A Scratch must not be used
// concurrently.
type Scratch struct {
	kvs []kv
	adj []float64
}

// kv pairs a cleaned p-value with its original hypothesis index, so the
// argsort runs on a concrete type with no index-closure allocations.
type kv struct {
	p   float64
	idx int
}

// scratchPool serves Apply and ApplyInto callers that pass nil scratch.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Apply runs the procedure on pvals at the given level. The input slice
// is not modified. P-values equal to NaN are treated as 1 (never
// rejected). The Result is freshly allocated and owned by the caller;
// hot paths that cannot afford that should use ApplyInto.
func Apply(proc Procedure, pvals []float64, level float64) (*Result, error) {
	res := &Result{}
	if err := ApplyInto(proc, pvals, level, res, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyInto runs the procedure on pvals at the given level, writing the
// outcome into res and doing all intermediate work in scr. Neither
// allocates once their buffers have grown to the family size, so
// steady-state application is allocation-free. A nil scr borrows one
// from an internal pool. res is fully overwritten: its Rejected and
// Adjusted slices are resized (reusing capacity) to len(pvals). The
// input slice is not modified; NaN p-values are treated as 1.
func ApplyInto(proc Procedure, pvals []float64, level float64, res *Result, scr *Scratch) error {
	if level <= 0 || level >= 1 {
		return fmt.Errorf("%w: %v", ErrBadLevel, level)
	}
	m := len(pvals)
	res.Procedure = proc
	res.Level = level
	res.NumReject = 0
	res.Rejected = growBools(res.Rejected, m)
	res.Adjusted = growFloats(res.Adjusted, m)
	if m == 0 {
		return nil
	}
	switch proc {
	case Uncorrected:
		for i, p := range pvals {
			p = cleanP(p)
			res.Adjusted[i] = p
			res.Rejected[i] = p <= level
		}
	case Bonferroni:
		mf := float64(m)
		for i, p := range pvals {
			adj := math.Min(1, cleanP(p)*mf)
			res.Adjusted[i] = adj
			res.Rejected[i] = adj <= level
		}
	case BH, BY:
		if scr == nil {
			s := scratchPool.Get().(*Scratch)
			defer scratchPool.Put(s)
			scr = s
		}
		scr.sortClean(pvals)
		c := 1.0
		if proc == BY {
			// BY inflates the threshold by the harmonic sum c(m) = Σ 1/i.
			c = 0
			for i := 1; i <= m; i++ {
				c += 1 / float64(i)
			}
		}
		applyStepUp(scr, level, res, c)
	default:
		return fmt.Errorf("fdr: unknown procedure %v", proc)
	}
	for _, r := range res.Rejected {
		if r {
			res.NumReject++
		}
	}
	return nil
}

// cleanP clamps a p-value into [0,1], mapping NaN to 1 (never rejected).
func cleanP(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return 1
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// sortClean fills s.kvs with the cleaned p-values paired with their
// indices, stably sorted ascending, and sizes s.adj to match.
func (s *Scratch) sortClean(pvals []float64) {
	m := len(pvals)
	if cap(s.kvs) < m {
		s.kvs = make([]kv, m)
	}
	s.kvs = s.kvs[:m]
	for i, p := range pvals {
		s.kvs[i] = kv{p: cleanP(p), idx: i}
	}
	slices.SortStableFunc(s.kvs, func(a, b kv) int { return cmp.Compare(a.p, b.p) })
	s.adj = growFloats(s.adj, m)
}

// growBools resizes b to n reusing capacity, with every element false.
func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// growFloats resizes f to n reusing capacity; contents are undefined.
func growFloats(f []float64, n int) []float64 {
	if cap(f) < n {
		return make([]float64, n)
	}
	return f[:n]
}

// applyStepUp implements the BH/BY step-up rule: find the largest k with
// p(k) ≤ k·α/(m·c), reject hypotheses 1..k. Adjusted p-values are the
// standard min-cummin from the top.
func applyStepUp(scr *Scratch, level float64, res *Result, c float64) {
	m := len(scr.kvs)
	adjSorted := scr.adj
	running := 1.0
	for rank := m - 1; rank >= 0; rank-- {
		adj := scr.kvs[rank].p * float64(m) * c / float64(rank+1)
		if adj > 1 {
			adj = 1
		}
		if adj < running {
			running = adj
		} else {
			adj = running
		}
		adjSorted[rank] = adj
	}
	// Find the largest k with p(k) ≤ (k/m)·(α/c).
	cut := -1
	for rank := m - 1; rank >= 0; rank-- {
		if scr.kvs[rank].p <= float64(rank+1)/float64(m)*level/c {
			cut = rank
			break
		}
	}
	for rank, e := range scr.kvs {
		res.Adjusted[e.idx] = adjSorted[rank]
		if rank <= cut {
			res.Rejected[e.idx] = true
		}
	}
}

// Confusion tallies one trial's rejections against ground truth.
type Confusion struct {
	TruePositives  int // faulty and flagged
	FalsePositives int // healthy but flagged (false alarms)
	TrueNegatives  int // healthy and not flagged
	FalseNegatives int // faulty but missed
}

// Score compares a rejection vector with the ground-truth fault vector.
// When the lengths differ only the overlapping prefix is scored, so a
// short truth vector can never panic the caller; positions without a
// counterpart carry no information and are dropped from the tally.
func Score(rejected, truth []bool) Confusion {
	var c Confusion
	if len(truth) < len(rejected) {
		rejected = rejected[:len(truth)]
	}
	for i := range rejected {
		switch {
		case rejected[i] && truth[i]:
			c.TruePositives++
		case rejected[i] && !truth[i]:
			c.FalsePositives++
		case !rejected[i] && truth[i]:
			c.FalseNegatives++
		default:
			c.TrueNegatives++
		}
	}
	return c
}

// FDP returns the false discovery proportion V/max(R,1) of this trial.
func (c Confusion) FDP() float64 {
	r := c.TruePositives + c.FalsePositives
	if r == 0 {
		return 0
	}
	return float64(c.FalsePositives) / float64(r)
}

// Power returns the true positive rate S/m1 (1 when there are no
// true faults, by convention).
func (c Confusion) Power() float64 {
	m1 := c.TruePositives + c.FalseNegatives
	if m1 == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(m1)
}

// AnyFalseAlarm reports whether the trial committed at least one type I
// error (the event whose probability FWER measures).
func (c Confusion) AnyFalseAlarm() bool { return c.FalsePositives > 0 }

// Metrics aggregates confusion counts over Monte-Carlo trials into the
// quantities the paper reasons about: empirical FDR (mean FDP),
// empirical FWER (share of trials with ≥1 false alarm) and mean power.
type Metrics struct {
	Trials    int
	sumFDP    float64
	sumPower  float64
	fwerTrips int
	Total     Confusion
}

// Add folds one trial into the aggregate.
func (m *Metrics) Add(c Confusion) {
	m.Trials++
	m.sumFDP += c.FDP()
	m.sumPower += c.Power()
	if c.AnyFalseAlarm() {
		m.fwerTrips++
	}
	m.Total.TruePositives += c.TruePositives
	m.Total.FalsePositives += c.FalsePositives
	m.Total.TrueNegatives += c.TrueNegatives
	m.Total.FalseNegatives += c.FalseNegatives
}

// FDR returns the empirical false discovery rate E[FDP].
func (m *Metrics) FDR() float64 {
	if m.Trials == 0 {
		return 0
	}
	return m.sumFDP / float64(m.Trials)
}

// FWER returns the empirical family-wise error rate.
func (m *Metrics) FWER() float64 {
	if m.Trials == 0 {
		return 0
	}
	return float64(m.fwerTrips) / float64(m.Trials)
}

// Power returns mean statistical power across trials.
func (m *Metrics) Power() float64 {
	if m.Trials == 0 {
		return 0
	}
	return m.sumPower / float64(m.Trials)
}
