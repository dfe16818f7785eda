package tsdb

import (
	"reflect"
	"testing"

	"repro/internal/hbase"
)

// TestTagFilterEqualsFilterAfterDecode: a query whose tags ride the
// scan as a row filter returns exactly what decoding every row of the
// metric and filtering on the decoded tags returns — the unfiltered
// query's series, kept by tagsMatch — for full tags, one tag, no tags,
// a value and a key never written, and an empty value, under salted and
// unsalted codecs, with the rows spread over store files and the
// memstore.
func TestTagFilterEqualsFilterAfterDecode(t *testing.T) {
	for _, salt := range []int{0, 4} {
		cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2, FlushThresholdBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Stop)
		d, err := NewDeployment(cluster, 1, TSDConfig{SaltBuckets: salt})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable(); err != nil {
			t.Fatal(err)
		}
		tsd := d.TSDs()[0]
		// 4 units × 4 sensors, plus a series carrying a third tag, over
		// two hours; small flushes leave most rows in store files.
		phased := map[string]string{"unit": "3", "sensor": "1", "phase": "a"}
		for ts := int64(0); ts < 2*RowSeconds; ts += 9 {
			var pts []Point
			for s := 0; s < 16; s++ {
				pts = append(pts, EnergyPoint(s/4, s%4, ts, float64(ts+int64(s))))
			}
			pts = append(pts, Point{Metric: MetricEnergy, Tags: phased, Timestamp: ts, Value: -float64(ts)})
			if err := tsd.Put(pts); err != nil {
				t.Fatal(err)
			}
		}
		if cluster.StoreFileBytes() == 0 || cluster.MemstoreBytes() == 0 {
			t.Fatalf("salt %d: rows not spread: %d store-file bytes, %d memstore bytes", salt, cluster.StoreFileBytes(), cluster.MemstoreBytes())
		}
		tagSets := map[string]map[string]string{
			"full tags":         EnergyTags(1, 2),
			"unit only":         {"unit": "2"},
			"third tag":         {"phase": "a"},
			"no tags":           nil,
			"value never put":   {"unit": "99"},
			"key never put":     {"rack": "1"},
			"empty value":       {"unit": "3", "phase": ""},
			"full and unknown":  {"unit": "1", "sensor": "2", "rack": "1"},
			"one of two values": {"unit": "3", "phase": "a"},
		}
		windows := []Query{
			{Start: 0, End: 2*RowSeconds - 1},
			{Start: 3000, End: 4000},
			{Start: 0, End: 2*RowSeconds - 1, DownsampleSeconds: 600, Aggregate: AggMax},
		}
		for name, tags := range tagSets {
			for _, w := range windows {
				q := w
				q.Metric = MetricEnergy
				all, err := tsd.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				var want []Series
				for _, s := range all {
					if tagsMatch(tags, s.Tags) {
						want = append(want, s)
					}
				}
				q.Tags = tags
				got, err := tsd.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("salt %d, %s, [%d, %d]: %d series from the filtered scan, %d after decoding", salt, name, q.Start, q.End, len(got), len(want))
				}
				if name == "full tags" && len(got) != 1 {
					t.Fatalf("salt %d: full tags read %d series, want 1", salt, len(got))
				}
			}
		}
	}
}
