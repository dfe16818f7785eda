package main

import (
	"time"

	"repro/internal/simdata"
)

// spec is one named workload: the system it boots, the traffic it
// drives and why it is in the benchmark. Sizes are fields so the smoke
// tests can shrink them; the command line always runs them as listed in
// workloads().
type spec struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string

	// cluster selects the four-node StartNode assembly over the
	// single-process System.
	cluster bool

	units, sensors, storageNodes int
	detector                     string
	detectorWorkers              int
	detectorParams               map[string]float64

	// trainTicks > 0 fits per-unit models on ticks [0, trainTicks)
	// during set-up; preloadTicks > 0 ingests and seals that much
	// history (the dashboard's store). The window's first tick follows.
	trainTicks, preloadTicks int

	// faultFraction of the units carry a fault from fleet tick
	// faultOnset on (negative: never, the data stays quiet).
	faultFraction float64
	faultOnset    int64

	// rowsPerSec > 0 is the open-loop schedule; 0 is a closed loop,
	// whose writers send as fast as acks return.
	rowsPerSec float64

	// roundRows > 0 splits the run into rounds: each boots a fresh
	// system and drives that many rows (or until the round's share of
	// the window is over), and the run reports the median round. It is
	// how a workload whose store may not outgrow its memstores still
	// measures for the whole window.
	roundRows, roundSeconds int

	// warmup seconds are driven before the measured window opens (per
	// round): their operations are checked but not timed.
	warmup float64
	// slice is the length of the sub-windows whose median gives
	// throughput and CPU per operation; 0 takes the totals of the round.
	slice time.Duration

	// cellCheck compares the store with what was sent cell by cell from
	// a direct scan, where reading it back through the API would take
	// longer than the window.
	cellCheck bool

	// writers and readers are connection counts; a dashboard workload
	// (readers > 0) writes one whole fleet tick per second instead of
	// rows.
	writers, readers int
}

// The latency limits behind the *_slo_frac metrics, in milliseconds: a
// row acked, a read answered, a flag on the stream.
const (
	putSLOms  = 100
	readSLOms = 500
	flagSLOms = 250
)

func (sp *spec) firstTick() int64 {
	if sp.preloadTicks > sp.trainTicks {
		return int64(sp.preloadTicks)
	}
	return int64(sp.trainTicks)
}

// sealedTo is the last tick of the preloaded history the set-up's
// compaction pass seals: hour 0 once the frontier is an hour past it.
func (sp *spec) sealedTo() int64 {
	if sp.preloadTicks > 3600 {
		return 3599
	}
	return int64(sp.preloadTicks) - 1
}

// neverOnset keeps every fault beyond any tick a run reaches.
const neverOnset = int64(1) << 40

// fleetConfig derives the simulated fleet from the run's seed.
func (sp *spec) fleetConfig(seed uint64) simdata.Config {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // sentinel.Config would turn 0 into 42
	}
	onset := sp.faultOnset
	if onset < 0 {
		onset = neverOnset
	}
	return simdata.Config{
		Units:          sp.units,
		SensorsPerUnit: sp.sensors,
		Seed:           seed,
		FaultFraction:  sp.faultFraction,
		FaultOnset:     onset,
	}
}

// rounds is how many rounds a window of the given length is split into,
// and how long each may drive.
func (sp *spec) rounds(seconds float64) (n int, each float64) {
	if sp.roundRows == 0 {
		return 1, seconds
	}
	n = max(1, int(seconds)/sp.roundSeconds)
	return n, seconds / float64(n)
}

// ticksFor is how many fleet ticks of rows one round of the given length
// (warm-up included) can consume.
func (sp *spec) ticksFor(seconds float64) int {
	if sp.roundRows > 0 {
		return sp.roundRows / sp.units
	}
	return int(sp.rowsPerSec*seconds)/sp.units + 1
}

// workloads lists the benchmark's four workloads. BENCHMARK.json
// repeats the names and reasons of the ones a later change is held to
// (all but firehose: README.md says why); TestSmoke keeps the two in
// step.
func workloads() []*spec {
	return []*spec{
		{
			name:  "firehose",
			why:   "closed-loop unthrottled row POSTs on quiet data: the software ceiling of the write path; detection and reads do almost nothing",
			units: 8, sensors: 50, storageNodes: 6,
			detector: "cusum", detectorWorkers: 1,
			faultFraction: 0.5, faultOnset: -1,
			roundRows: 24000, roundSeconds: 6, warmup: 0.25, writers: 2,
			cellCheck: true,
		},
		{
			name:  "detect-paced",
			why:   "open loop at a third of the write ceiling with mgd+BH flag storms: the detect path to the SSE stream does the distinctive work",
			units: 8, sensors: 200, storageNodes: 6,
			detector: "mgd", detectorWorkers: 2, trainTicks: 256,
			faultFraction: 0.5, faultOnset: 256 + 50,
			rowsPerSec: 160, writers: 2,
			warmup: 2, slice: 500 * time.Millisecond, cellCheck: true,
		},
		{
			name:  "dashboard",
			why:   "closed-loop Zipf read mix over hot, sealed and rollup data beside a 1 Hz write stream: the read tier does nearly all the work",
			units: 4, sensors: 4, storageNodes: 3,
			detector: "cusum", detectorWorkers: 1, preloadTicks: 3720,
			faultFraction: 1, faultOnset: 3600,
			writers: 1, readers: 2,
			warmup: 2, slice: time.Second,
		},
		{
			name:    "cluster-paced",
			why:     "the paced job through the four-node TCP assembly (rpc transport, replicated bus, zk, query fanout): prices the hops and guards the one-assembly refactor",
			cluster: true,
			units:   8, sensors: 50, storageNodes: 2,
			detector: "cusum", detectorWorkers: 2,
			detectorParams: map[string]float64{"warmup": 20},
			faultFraction:  0.5, faultOnset: 50,
			rowsPerSec: 100, writers: 2,
			warmup: 2, slice: 500 * time.Millisecond,
		},
	}
}

func workloadByName(name string) *spec {
	for _, sp := range workloads() {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
