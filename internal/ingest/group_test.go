package ingest

import (
	"reflect"
	"testing"

	"repro/internal/tsdb"
)

func unitRow(unit, sensors int, ts int64) []tsdb.Point {
	pts := make([]tsdb.Point, sensors)
	for s := range pts {
		pts[s] = tsdb.EnergyPoint(unit, s, ts, float64(s))
	}
	return pts
}

// TestGroupByUnitAliasesSingleUnit: one unit's row comes back as one
// batch over the very slice passed in — no per-point copy.
func TestGroupByUnitAliasesSingleUnit(t *testing.T) {
	pts := unitRow(7, 200, 11)
	got := GroupByUnit(pts)
	if len(got) != 1 {
		t.Fatalf("groups = %d, want 1", len(got))
	}
	b := got[7]
	if b == nil || b.Unit != 7 || len(b.Points) != len(pts) {
		t.Fatalf("batch = %+v, want unit 7 with %d points under key 7", b, len(pts))
	}
	if &b.Points[0] != &pts[0] {
		t.Fatal("single-unit batch copied the points instead of aliasing them")
	}
}

// TestGroupByUnitMixedAndUntagged pins the general path: units split
// into their own batches in arrival order, two spellings of one unit
// merge, and points without a numeric unit key by series identity.
func TestGroupByUnitMixedAndUntagged(t *testing.T) {
	mixed := append(unitRow(1, 3, 5), unitRow(2, 2, 5)...)
	mixed = append(mixed, tsdb.EnergyPoint(1, 3, 5, 9))
	got := GroupByUnit(mixed)
	if len(got) != 2 || len(got[1].Points) != 4 || len(got[2].Points) != 2 {
		t.Fatalf("mixed units grouped as %v", got)
	}
	if got[1].Unit != 1 || got[2].Unit != 2 || got[1].Points[3].Value != 9 {
		t.Fatalf("mixed units: unit ids or arrival order wrong: %+v %+v", got[1], got[2])
	}
	if &got[1].Points[0] == &mixed[0] {
		t.Fatal("a multi-unit request must not alias its input")
	}

	spelled := []tsdb.Point{
		{Metric: "m", Tags: map[string]string{"unit": "7", "sensor": "0"}},
		{Metric: "m", Tags: map[string]string{"unit": "07", "sensor": "1"}},
	}
	if got := GroupByUnit(spelled); len(got) != 1 || got[7].Unit != 7 || len(got[7].Points) != 2 {
		t.Fatalf(`"7" and "07" grouped as %v, want one batch of unit 7`, got)
	}

	untagged := []tsdb.Point{
		{Metric: "temp", Tags: map[string]string{"host": "a"}},
		{Metric: "temp", Tags: map[string]string{"host": "b"}},
		{Metric: "temp", Tags: map[string]string{"host": "a"}, Timestamp: 1},
		{Metric: "temp", Tags: map[string]string{"unit": "north"}},
	}
	got = GroupByUnit(untagged)
	if len(got) != 3 {
		t.Fatalf("untagged points grouped into %d batches, want 3 (one per series)", len(got))
	}
	for key, b := range got {
		if b.Unit != -1 {
			t.Errorf("batch %d: Unit = %d, want -1", key, b.Unit)
		}
		for i := range b.Points {
			if UnitKey(&b.Points[i]) != key {
				t.Errorf("batch %d holds a point keyed %d", key, UnitKey(&b.Points[i]))
			}
		}
	}
	if a := got[UnitKey(&untagged[0])]; !reflect.DeepEqual(a.Points, []tsdb.Point{untagged[0], untagged[2]}) {
		t.Errorf("series host=a batch = %+v", a.Points)
	}

	if got := GroupByUnit(nil); len(got) != 0 {
		t.Fatalf("no points grouped as %v", got)
	}
}

// BenchmarkGroupByUnit/single-unit is the grouping the gateway does
// per request for one unit's 200-sensor row; PINS holds it to
// the map and the batch.
func BenchmarkGroupByUnit(b *testing.B) {
	b.Run("single-unit", func(b *testing.B) {
		pts := unitRow(7, 200, 11)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(GroupByUnit(pts)) != 1 {
				b.Fatal("a row grouped into more than one unit")
			}
		}
	})
}
