// Package simdata generates the paper's evaluation dataset (§II-A): a
// simulated fleet of power-generating assets — by default 100 units
// with 1000 sensors each, on the order of the ~3000 sensors in a
// Siemens SGT5-8000H gas turbine — sampled at 1 Hz, with three fault
// classes:
//
//   - FaultNone:  pure random noise (healthy baseline),
//   - FaultDrift: noise plus a gradual degradation signal, and
//   - FaultShift: noise plus a sharp mean shift.
//
// Injected faults are correlated across sensors: each faulty unit has a
// deterministic group of affected sensors with per-sensor loadings, so
// a single physical fault moves several signals together, exactly the
// structure the paper injects to measure multi-stream detection.
//
// Generation is counter-based: the value of (unit, sensor, t) is a pure
// function of the seed, so any slice of the fleet can be produced in
// any order, in parallel, without storing state. That is what lets the
// ingestion benchmarks replay "100 assets × 1000 sensors" workloads
// without materializing them first.
package simdata

import (
	"fmt"
	"math"
)

// FaultClass labels the three §II-A fault categories.
type FaultClass int

// The fault taxonomy: the paper's three §II-A categories plus the two
// sensor-failure modes the backtest harness injects (a transducer
// sticking at a fixed reading, and intermittent spikes).
const (
	FaultNone  FaultClass = iota // pure random noise
	FaultDrift                   // noise + gradual degradation signal
	FaultShift                   // noise + sharp shift
	FaultStuck                   // sensor frozen at an offset constant
	FaultSpike                   // periodic transient spikes
)

// String implements fmt.Stringer.
func (f FaultClass) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrift:
		return "drift"
	case FaultShift:
		return "shift"
	case FaultStuck:
		return "stuck"
	case FaultSpike:
		return "spike"
	default:
		return fmt.Sprintf("FaultClass(%d)", int(f))
	}
}

// SensorKind gives each simulated channel a physical flavour so the
// visualization shows realistic magnitudes (a gas turbine mixes
// temperatures, pressures, vibrations, flows and speeds).
type SensorKind int

// The simulated sensor types, cycled across each unit's channels.
const (
	KindTemperature SensorKind = iota // °C, mean ≈ 450–650
	KindPressure                      // bar, mean ≈ 18–42
	KindVibration                     // mm/s, mean ≈ 2–6
	KindFlow                          // kg/s, mean ≈ 80–220
	KindSpeed                         // rpm, mean ≈ 3000–3600
	numKinds
)

// String implements fmt.Stringer.
func (k SensorKind) String() string {
	switch k {
	case KindTemperature:
		return "temperature"
	case KindPressure:
		return "pressure"
	case KindVibration:
		return "vibration"
	case KindFlow:
		return "flow"
	case KindSpeed:
		return "speed"
	default:
		return fmt.Sprintf("SensorKind(%d)", int(k))
	}
}

// Unit returns the measurement unit string for the kind.
func (k SensorKind) Unit() string {
	switch k {
	case KindTemperature:
		return "degC"
	case KindPressure:
		return "bar"
	case KindVibration:
		return "mm/s"
	case KindFlow:
		return "kg/s"
	case KindSpeed:
		return "rpm"
	default:
		return ""
	}
}

// Point is one sensor sample flowing through the system: the simulated
// fleet emits Points, the ingest layer writes them to the TSDB under
// metric "energy" with tags unit=<Unit> sensor=<Sensor>.
type Point struct {
	Unit      int
	Sensor    int
	Timestamp int64 // seconds since epoch of the simulation
	Value     float64
}

// Config describes a simulated fleet.
type Config struct {
	Units          int    // number of power-generating assets
	SensorsPerUnit int    // channels per asset
	Seed           uint64 // master seed; everything is derived from it

	// FaultFraction is the share of units carrying an injected fault,
	// split evenly between drift and shift classes. Defaults to 0.3.
	FaultFraction float64
	// FaultOnset is the time step at which injected faults begin.
	// Samples before the onset are healthy on every unit, which is what
	// the offline trainer consumes. Defaults to 600.
	FaultOnset int64
	// FaultSensors is the number of correlated sensors a fault touches.
	// Defaults to max(3, SensorsPerUnit/20).
	FaultSensors int
	// DriftPerStep is the degradation slope in baseline standard
	// deviations per step at loading 1. Defaults to 0.02.
	DriftPerStep float64
	// ShiftSigma is the sharp-shift magnitude in baseline standard
	// deviations at loading 1. Defaults to 4.
	ShiftSigma float64
	// Classes restricts which fault classes faulty units draw from.
	// Nil keeps the paper's legacy behavior (an even drift/shift
	// split); a single-class slice makes every faulty unit that class,
	// which is how the backtest harness builds per-scenario fleets.
	Classes []FaultClass
}

// The stuck and spike fault shapes, in baseline standard deviations at
// loading 1: a FaultStuck sensor freezes stuckSigma off its mean; a
// FaultSpike sensor jumps spikeSigma every spikePeriod steps.
const (
	stuckSigma  = 3
	spikeSigma  = 8
	spikePeriod = 30
)

// PaperConfig returns the evaluation configuration from §II-A: 100
// units × 1000 sensors.
func PaperConfig(seed uint64) Config {
	return Config{Units: 100, SensorsPerUnit: 1000, Seed: seed}
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Units <= 0 {
		c.Units = 100
	}
	if c.SensorsPerUnit <= 0 {
		c.SensorsPerUnit = 1000
	}
	if c.FaultFraction <= 0 {
		c.FaultFraction = 0.3
	}
	if c.FaultFraction > 1 {
		c.FaultFraction = 1
	}
	if c.FaultOnset <= 0 {
		c.FaultOnset = 600
	}
	if c.FaultSensors <= 0 {
		c.FaultSensors = c.SensorsPerUnit / 20
		if c.FaultSensors < 3 {
			c.FaultSensors = 3
		}
	}
	if c.FaultSensors > c.SensorsPerUnit {
		c.FaultSensors = c.SensorsPerUnit
	}
	if c.DriftPerStep == 0 {
		c.DriftPerStep = 0.02
	}
	if c.ShiftSigma == 0 {
		c.ShiftSigma = 4
	}
	return c
}

// Fault describes the injected fault on one unit.
type Fault struct {
	Class   FaultClass
	Onset   int64     // first faulty time step
	Sensors []int     // affected sensor ids (sorted)
	Loading []float64 // per-sensor loading in (0.5, 1.5]
}

// Affects reports the loading of the fault on the given sensor, or 0.
func (f *Fault) Affects(sensor int) float64 {
	for i, s := range f.Sensors {
		if s == sensor {
			return f.Loading[i]
		}
	}
	return 0
}

// Fleet generates sensor data deterministically from a Config.
type Fleet struct {
	cfg    Config
	faults []Fault // per unit
}

// NewFleet validates cfg, applies defaults and precomputes each unit's
// fault descriptor.
func NewFleet(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg, faults: make([]Fault, cfg.Units)}
	for u := 0; u < cfg.Units; u++ {
		f.faults[u] = f.makeFault(u)
	}
	return f
}

// Config returns the fleet's effective (defaulted) configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Units returns the number of units in the fleet.
func (f *Fleet) Units() int { return f.cfg.Units }

// Sensors returns the number of sensors per unit.
func (f *Fleet) Sensors() int { return f.cfg.SensorsPerUnit }

// makeFault deterministically draws unit u's fault descriptor.
func (f *Fleet) makeFault(u int) Fault {
	r := newStream(f.cfg.Seed, uint64(u), 0xFA017)
	if r.float() >= f.cfg.FaultFraction {
		return Fault{Class: FaultNone}
	}
	// The class draw consumes exactly one uniform on both paths, so
	// setting Classes never shifts which units are faulty or which
	// sensors a fault touches for a given seed.
	draw := r.float()
	class := FaultDrift
	if draw < 0.5 {
		class = FaultShift
	}
	if len(f.cfg.Classes) > 0 {
		class = f.cfg.Classes[int(draw*float64(len(f.cfg.Classes)))]
	}
	// Pick a correlated block of sensors starting at a random offset —
	// physically adjacent channels (same subsystem) fail together.
	k := f.cfg.FaultSensors
	start := int(r.uint() % uint64(f.cfg.SensorsPerUnit))
	sensors := make([]int, k)
	loading := make([]float64, k)
	for i := 0; i < k; i++ {
		sensors[i] = (start + i) % f.cfg.SensorsPerUnit
		loading[i] = 0.5 + r.float() // (0.5, 1.5]
	}
	sortFaultSensors(sensors, loading)
	return Fault{Class: class, Onset: f.cfg.FaultOnset, Sensors: sensors, Loading: loading}
}

func sortFaultSensors(sensors []int, loading []float64) {
	// Insertion sort keeping the loading aligned (k is small).
	for i := 1; i < len(sensors); i++ {
		s, l := sensors[i], loading[i]
		j := i - 1
		for j >= 0 && sensors[j] > s {
			sensors[j+1], loading[j+1] = sensors[j], loading[j]
			j--
		}
		sensors[j+1], loading[j+1] = s, l
	}
}

// UnitFault returns unit u's fault descriptor.
func (f *Fleet) UnitFault(u int) Fault { return f.faults[u] }

// Baseline returns the healthy mean and standard deviation of (unit,
// sensor), drawn deterministically per channel around its kind's
// typical magnitude.
func (f *Fleet) Baseline(unit, sensor int) (mean, sigma float64) {
	kind := f.Kind(sensor)
	r := newStream(f.cfg.Seed, uint64(unit)<<20|uint64(sensor), 0xBA5E)
	switch kind {
	case KindTemperature:
		mean = 450 + 200*r.float()
		sigma = 2 + 3*r.float()
	case KindPressure:
		mean = 18 + 24*r.float()
		sigma = 0.3 + 0.5*r.float()
	case KindVibration:
		mean = 2 + 4*r.float()
		sigma = 0.1 + 0.25*r.float()
	case KindFlow:
		mean = 80 + 140*r.float()
		sigma = 1 + 2.5*r.float()
	default: // KindSpeed
		mean = 3000 + 600*r.float()
		sigma = 5 + 10*r.float()
	}
	return mean, sigma
}

// Kind returns the physical kind of a sensor channel.
func (f *Fleet) Kind(sensor int) SensorKind {
	return SensorKind(sensor % int(numKinds))
}

// Value returns the reading of (unit, sensor) at time step t. It is a
// pure function of the fleet seed.
func (f *Fleet) Value(unit, sensor int, t int64) float64 {
	mean, sigma := f.Baseline(unit, sensor)
	noise := gaussian(f.cfg.Seed, uint64(unit), uint64(sensor), uint64(t))
	v := mean + sigma*noise
	fault := &f.faults[unit]
	if fault.Class == FaultNone || t < fault.Onset {
		return v
	}
	load := fault.Affects(sensor)
	if load == 0 {
		return v
	}
	switch fault.Class {
	case FaultDrift:
		v += load * f.cfg.DriftPerStep * float64(t-fault.Onset) * sigma
	case FaultShift:
		v += load * f.cfg.ShiftSigma * sigma
	case FaultStuck:
		// A stuck transducer reports a constant: the noise disappears
		// and the reading freezes offset from the healthy mean.
		v = mean + load*stuckSigma*sigma
	case FaultSpike:
		if (t-fault.Onset)%spikePeriod == 0 {
			v += load * spikeSigma * sigma
		}
	}
	return v
}

// Faulty reports whether (unit, sensor) carries fault signal at step t
// — the ground truth the detection experiments score against. For
// FaultSpike only the spike steps themselves count as faulty; the
// in-between steps are clean readings.
func (f *Fleet) Faulty(unit, sensor int, t int64) bool {
	fault := &f.faults[unit]
	if fault.Class == FaultNone || t < fault.Onset || fault.Affects(sensor) == 0 {
		return false
	}
	if fault.Class == FaultSpike {
		return (t-fault.Onset)%spikePeriod == 0
	}
	return true
}

// Point returns the full sample for (unit, sensor, t).
func (f *Fleet) Point(unit, sensor int, t int64) Point {
	return Point{Unit: unit, Sensor: sensor, Timestamp: t, Value: f.Value(unit, sensor, t)}
}

// Snapshot appends one Point per (unit, sensor) at step t to dst and
// returns it; with a nil dst it allocates Units×Sensors points. This is
// one "tick" of the 1 Hz fleet.
func (f *Fleet) Snapshot(dst []Point, t int64) []Point {
	if dst == nil {
		dst = make([]Point, 0, f.cfg.Units*f.cfg.SensorsPerUnit)
	}
	for u := 0; u < f.cfg.Units; u++ {
		for s := 0; s < f.cfg.SensorsPerUnit; s++ {
			dst = append(dst, f.Point(u, s, t))
		}
	}
	return dst
}

// UnitWindow returns a steps×sensors matrix of unit u's readings over
// [from, from+steps) as row-major float64 rows, for the offline trainer.
func (f *Fleet) UnitWindow(u int, from int64, steps int) [][]float64 {
	rows := make([][]float64, steps)
	for i := 0; i < steps; i++ {
		t := from + int64(i)
		row := make([]float64, f.cfg.SensorsPerUnit)
		for s := 0; s < f.cfg.SensorsPerUnit; s++ {
			row[s] = f.Value(u, s, t)
		}
		rows[i] = row
	}
	return rows
}

// stream is a tiny deterministic PRNG (splitmix64) keyed by domain.
type stream struct{ state uint64 }

func newStream(seed, key, domain uint64) *stream {
	return &stream{state: mix(mix(seed^0x9E3779B97F4A7C15) ^ mix(key+domain*0xBF58476D1CE4E5B9))}
}

func (s *stream) uint() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix(s.state)
}

// float returns a uniform in [0, 1).
func (s *stream) float() float64 {
	return float64(s.uint()>>11) / float64(1<<53)
}

// mix is the splitmix64 finalizer: a high-quality 64-bit bijection.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// gaussian returns a standard normal deviate that is a pure function of
// (seed, unit, sensor, t), via two counter-mode uniforms and Box-Muller.
func gaussian(seed, unit, sensor, t uint64) float64 {
	h := mix(seed ^ mix(unit*0xA24BAED4963EE407+sensor*0x9FB21C651E98DF25) ^ mix(t+0x8BB84B93962EACC9))
	u1 := float64(h>>11) / float64(1<<53)
	h2 := mix(h ^ 0xD6E8FEB86659FD93)
	u2 := float64(h2>>11) / float64(1<<53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
