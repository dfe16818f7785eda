package mllib

import (
	"fmt"
	"sort"
	"sync"
)

// DetectorFlag is one flagged observation from a batch detection.
type DetectorFlag struct {
	// Row is the observation row within the batch.
	Row int
	// Sensor is the flagged channel, or -1 for a unit-level flag (a
	// detector that scores whole observation vectors rather than
	// individual sensors).
	Sensor int
	// Score is the detector-specific severity, larger = more anomalous
	// (|z| for the z-based families, the normalized CUSUM statistic).
	// Scores are comparable within one family, not across families.
	Score float64
	// PValue and Adjusted carry the raw and corrected p-values for
	// p-value-based families (the MGD evaluator); families without a
	// significance calculus leave them 0.
	PValue   float64
	Adjusted float64
}

// Detections is the caller-owned result buffer of DetectBatchInto.
// The flags backing is retained between calls, so a warmed buffer
// makes detection allocation-free in the steady state. A Detections
// must not be used concurrently.
type Detections struct {
	// Flags holds the batch's flags in ascending Row order.
	Flags []DetectorFlag
}

// Reset empties the buffer, keeping its capacity.
func (d *Detections) Reset() { d.Flags = d.Flags[:0] }

// Add appends one flag.
func (d *Detections) Add(f DetectorFlag) { d.Flags = append(d.Flags, f) }

// Detector is the pluggable detection interface over the bus-fed
// batch path: one instance scores one unit's observation stream.
//
// The contract mirrors core.Evaluator.EvaluateBatchInto: the caller
// owns the result buffer, internal scratch is retained by the
// instance, and a warmed detector processes a batch without heap
// allocations. Streaming families (CUSUM, regime z-score) carry their
// state inside the instance, so an instance must only ever see one
// unit's rows, in time order, from one goroutine at a time — exactly
// what the unit-keyed commit-log partitions guarantee.
type Detector interface {
	// Name is the registry name of the detector family.
	Name() string
	// DetectBatchInto scores a batch of observation rows taken at ts
	// (len(ts) == len(xs), every row Sensors wide), resetting out and
	// filling it with the batch's flags in ascending row order.
	DetectBatchInto(xs [][]float64, ts []int64, out *Detections) error
}

// Context is what a Factory receives to build one unit's detector.
type Context struct {
	// Unit and Sensors identify the stream the detector will score.
	Unit    int
	Sensors int
	// Seed is reserved for families that draw pseudo-random numbers,
	// which must be deterministic given (Seed, input stream). No
	// built-in family draws any.
	Seed uint64
	// Params carries family-specific tuning knobs; missing keys take
	// the family's documented defaults (see Param).
	Params map[string]float64
	// Members names the member families of a combining factory (the
	// ensemble); ignored by leaf families.
	Members []string
	// LoadModel lazily loads the unit's trained model for model-based
	// families (the MGD evaluator asserts *core.Model). Model-free
	// families never call it; nil when no catalog is available.
	LoadModel func() (any, error)
}

// Param returns Params[name], or def when absent.
func (c Context) Param(name string, def float64) float64 {
	if v, ok := c.Params[name]; ok {
		return v
	}
	return def
}

// Factory builds one unit's detector instance.
type Factory func(c Context) (Detector, error)

var registry = struct {
	sync.RWMutex
	m map[string]Factory
}{m: make(map[string]Factory)}

// Register adds a detector family to the registry under name,
// replacing any previous registration. The built-in families register
// themselves: cusum and zscore here, ensemble as the combiner, and mgd
// from internal/core (which owns the trained-model evaluator this
// package must not depend on).
func Register(name string, f Factory) {
	registry.Lock()
	defer registry.Unlock()
	registry.m[name] = f
}

// New builds a detector of the named family for one unit.
func New(name string, c Context) (Detector, error) {
	registry.RLock()
	f, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mllib: unknown detector family %q", name)
	}
	if c.Sensors <= 0 {
		return nil, fmt.Errorf("mllib: detector %q needs a positive sensor count", name)
	}
	return f(c)
}

// Registered returns the sorted names of every registered family.
func Registered() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	registry.RUnlock()
	sort.Strings(names)
	return names
}
