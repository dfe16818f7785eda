package mllib

import (
	"strings"
	"testing"
)

// stubDetector replays a fixed flag script, keyed by call-relative
// row index — the ensemble tests need exact control over who votes.
type stubDetector struct {
	name  string
	flags []DetectorFlag
}

func (s *stubDetector) Name() string { return s.name }

func (s *stubDetector) DetectBatchInto(xs [][]float64, ts []int64, out *Detections) error {
	out.Reset()
	for _, f := range s.flags {
		if f.Row < len(xs) {
			out.Add(f)
		}
	}
	return nil
}

func TestEnsembleVoting(t *testing.T) {
	// Row 0: two voters (a, b) → emitted. Row 1: one voter (b) →
	// suppressed. Row 2: nobody. c never votes at all.
	a := &stubDetector{name: "a", flags: []DetectorFlag{
		{Row: 0, Sensor: 1, Score: 2},
	}}
	b := &stubDetector{name: "b", flags: []DetectorFlag{
		{Row: 0, Sensor: 1, Score: 5},
		{Row: 0, Sensor: -1, Score: 0.9}, // unit-level flag, same row
		{Row: 1, Sensor: 2, Score: 9},
	}}
	c := &stubDetector{name: "c"}
	e, err := NewEnsemble([]Detector{a, b, c}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.MinVotes() != 2 {
		t.Fatalf("MinVotes = %d", e.MinVotes())
	}
	xs := [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}
	var det Detections
	if err := e.DetectBatchInto(xs, []int64{0, 1, 2}, &det); err != nil {
		t.Fatal(err)
	}
	// Row 0's union: sensor 1 deduplicated to the max score (b's 5),
	// plus b's unit-level flag. Row 1 must not appear.
	if len(det.Flags) != 2 {
		t.Fatalf("flags = %+v, want 2 row-0 flags", det.Flags)
	}
	bySensor := map[int]float64{}
	for _, f := range det.Flags {
		if f.Row != 0 {
			t.Fatalf("row %d leaked through a 1-vote gate: %+v", f.Row, f)
		}
		bySensor[f.Sensor] = f.Score
	}
	if bySensor[1] != 5 {
		t.Fatalf("sensor-1 dedup kept score %v, want the max 5", bySensor[1])
	}
	if bySensor[-1] != 0.9 {
		t.Fatalf("unit-level flag lost: %v", det.Flags)
	}

	// The same instance across calls: per-call state fully resets.
	if err := e.DetectBatchInto(xs[:1], []int64{0}, &det); err != nil {
		t.Fatal(err)
	}
	for _, f := range det.Flags {
		if f.Row != 0 {
			t.Fatalf("stale cursor state leaked: %+v", det.Flags)
		}
	}
}

func TestEnsembleMinVotesClamped(t *testing.T) {
	a := &stubDetector{name: "a", flags: []DetectorFlag{{Row: 0, Sensor: 0, Score: 1}}}
	b := &stubDetector{name: "b", flags: []DetectorFlag{{Row: 0, Sensor: 0, Score: 2}}}

	// minVotes 0 clamps up to 1: a single voter suffices.
	lo, err := NewEnsemble([]Detector{a, b}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo.MinVotes() != 1 {
		t.Fatalf("minVotes 0 clamped to %d, want 1", lo.MinVotes())
	}

	// minVotes 99 clamps down to the member count: unanimity, which
	// these two members satisfy on row 0.
	hi, err := NewEnsemble([]Detector{a, b}, 99, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hi.MinVotes() != 2 {
		t.Fatalf("minVotes 99 clamped to %d, want 2", hi.MinVotes())
	}
	var det Detections
	if err := hi.DetectBatchInto([][]float64{{0, 0}}, []int64{0}, &det); err != nil {
		t.Fatal(err)
	}
	if len(det.Flags) != 1 || det.Flags[0].Score != 2 {
		t.Fatalf("unanimous flags = %+v", det.Flags)
	}

	if _, err := NewEnsemble(nil, 1, 2); err == nil {
		t.Fatal("accepted an empty member list")
	}
}

func TestEnsembleFactory(t *testing.T) {
	// The default panel is the paper's model beside the two streaming
	// charts. mgd registers in core, so this package reads the
	// configuration without building it.
	members, minVotes := EnsembleConfig(Context{})
	if got := strings.Join(members, "+"); got != "mgd+cusum+zscore" || minVotes != 2 {
		t.Fatalf("default ensemble = %s minVotes=%d, want mgd+cusum+zscore minVotes=2", got, minVotes)
	}
	if _, minVotes := EnsembleConfig(Context{Params: map[string]float64{"minvotes": 9}}); minVotes != 3 {
		t.Fatalf("minvotes 9 over three members = %d, want 3", minVotes)
	}

	// Explicit members and a self-referential member.
	d, err := New("ensemble", Context{Sensors: 6, Members: []string{"cusum", "zscore"},
		Params: map[string]float64{"minvotes": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e := d.(*Ensemble); e.MinVotes() != 1 || strings.Join(e.Members(), "+") != "cusum+zscore" {
		t.Fatalf("configured ensemble = %v minVotes=%d", e.Members(), e.MinVotes())
	}
	if _, err := New("ensemble", Context{Sensors: 6, Members: []string{"ensemble"}}); err == nil {
		t.Fatal("ensemble accepted itself as a member")
	}
	if _, err := New("ensemble", Context{Sensors: 6, Members: []string{"nope"}}); err == nil {
		t.Fatal("ensemble accepted an unknown member")
	}
}
