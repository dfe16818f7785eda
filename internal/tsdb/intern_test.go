package tsdb

import (
	"bytes"
	"errors"
	"maps"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/hbase"
	"repro/internal/rpc"
)

// TestEnergyTagsIsTheSeriesMap: every producer of one series holds one
// map — EnergyTags on each call, the wire decode of an energy point, and
// InternTags from the pairs in any order — and distinct series do not.
func TestEnergyTagsIsTheSeriesMap(t *testing.T) {
	m := EnergyTags(7, 3)
	if want := map[string]string{"unit": "7", "sensor": "3"}; !maps.Equal(m, want) {
		t.Fatalf("EnergyTags(7, 3) = %v, want %v", m, want)
	}
	enc, err := rpc.AppendValue(nil, &PutBatch{Points: []Point{EnergyPoint(7, 3, 10, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := rpc.DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]map[string]string{
		"EnergyTags again":         EnergyTags(7, 3),
		"wire decode":              v.(*PutBatch).Points[0].Tags,
		"InternTags":               InternTags([][2]string{{"unit", "7"}, {"sensor", "3"}}),
		"InternTags, repeated key": InternTags([][2]string{{"sensor", "9"}, {"unit", "7"}, {"sensor", "3"}}),
	} {
		if mapID(got) != mapID(m) {
			t.Errorf("%s: a map of its own, not the series' shared one", name)
		}
	}
	for _, other := range []map[string]string{EnergyTags(3, 7), EnergyTags(-7, 3), EnergyTags(7, 30)} {
		if mapID(other) == mapID(m) {
			t.Errorf("%v shares the map of unit 7 sensor 3", other)
		}
	}
	if !TagSets.holds(m) || TagSets.holds(maps.Clone(m)) {
		t.Error("the table must know its own maps, and only those")
	}
}

// TestInternTagsCopiesItsStrings: the shared map keeps no byte of the
// buffer its pairs were cut from.
func TestInternTagsCopiesItsStrings(t *testing.T) {
	s := string([]byte("unit=intern-copy sensor=1"))
	m := InternTags([][2]string{{s[:4], s[5:16]}, {s[17:23], s[24:]}})
	if m["unit"] != "intern-copy" || m["sensor"] != "1" {
		t.Fatalf("tags = %v", m)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	for k, v := range m {
		for _, str := range []string{k, v} {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(str))); at >= lo && at < lo+uintptr(len(s)) {
				t.Fatalf("%q aliases the input", str)
			}
		}
	}
}

// TestTagSpellingsNeverCollide: the smallest wire tag block that opens
// with '{' — 123 pairs of empty strings — is too long to be a table key,
// so a JSON spelling and a wire spelling can never name one entry.
func TestTagSpellingsNeverCollide(t *testing.T) {
	block := rpc.AppendUint(nil, '{')
	for i := 0; i < '{'; i++ {
		block = rpc.AppendString(rpc.AppendString(block, ""), "")
	}
	if block[0] != '{' || len(block) <= internMaxKey {
		t.Fatalf("a %d-byte wire block opening with %q could be interned", len(block), block[0])
	}
}

// TestEncodeInternedEqualsFresh: a point encodes to the same bytes
// whether its tags are the series' interned map or a private copy, salted
// or not, under the metric the cache was filled with or another; and a
// private map is never cached — its owner may change it between points.
func TestEncodeInternedEqualsFresh(t *testing.T) {
	for _, salt := range []int{0, 8} {
		d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: salt})
		codec := NewCodec(d.UIDs, salt)
		for _, p := range []Point{
			EnergyPoint(4, 2, 7249, 123.456),
			EnergyPoint(4, 2, 7250, -1),
			{Metric: MetricAnomaly, Tags: EnergyTags(4, 2), Timestamp: 7251, Value: 5},
			EnergyPoint(5, 0, 0, 0),
			{Metric: "m", Tags: InternTags([][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}}), Timestamp: 1 << 31, Value: 2},
		} {
			fresh := p
			fresh.Tags = maps.Clone(p.Tags)
			for i := 0; i < 2; i++ { // a miss, then a hit
				a, err := codec.Encode(&p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := codec.Encode(&fresh)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Row, b.Row) || !bytes.Equal(a.Qual, b.Qual) || !bytes.Equal(a.Value, b.Value) {
					t.Fatalf("salt %d, %+v: interned %x/%x/%x, fresh %x/%x/%x", salt, p, a.Row, a.Qual, a.Value, b.Row, b.Qual, b.Value)
				}
			}
		}

		tags := map[string]string{"unit": "4", "sensor": "2"}
		p := Point{Metric: MetricEnergy, Tags: tags, Timestamp: 10, Value: 1}
		before, _ := codec.Encode(&p)
		tags["sensor"] = "3"
		after, _ := codec.Encode(&p)
		want := EnergyPoint(4, 3, 10, 1)
		wantCell, _ := codec.Encode(&want)
		if bytes.Equal(before.Row, after.Row) || !bytes.Equal(after.Row, wantCell.Row) {
			t.Fatalf("salt %d: a private map's change did not reach its row key", salt)
		}

		// The cached tag set passed Validate; the rest of a point is still
		// checked.
		for _, bad := range []Point{
			{Metric: "", Tags: EnergyTags(4, 2), Timestamp: 1},
			{Metric: MetricEnergy, Tags: EnergyTags(4, 2), Timestamp: -1},
		} {
			if _, err := codec.Encode(&bad); !errors.Is(err, ErrBadPoint) {
				t.Fatalf("salt %d: %+v encoded (err %v)", salt, bad, err)
			}
		}
	}
}

// TestEncodeAfterUIDReload: a UID table Reload forgets an id whose persist
// failed and hands it to the next new name. A series the codec cached
// under that id must not keep it: its interned point still encodes to the
// bytes of its private-map twin, and the row reads back as its own series.
func TestEncodeAfterUIDReload(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{})
	codec := NewCodec(d.UIDs, 0)
	known := EnergyPoint(1, 4, 7200, 1) // persists every name but unit 9101's
	if _, err := codec.Encode(&known); err != nil {
		t.Fatal(err)
	}

	// Persisting unit 9101's tag value fails — through a cluster with no
	// table — after its id is already published in memory.
	down, err := hbase.NewCluster(hbase.Config{RegionServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(down.Stop)
	live := d.UIDs.client
	d.UIDs.client = down.NewClient(hbase.ClientConfig{MaxRetries: 1})
	p := EnergyPoint(9101, 4, 7201, 2)
	if _, err := codec.Encode(&p); err == nil {
		t.Fatal("a uid persisted through a cluster with no table")
	}
	d.UIDs.client = live
	stale, err := codec.Encode(&p) // the unpersisted id, now cached
	if err != nil {
		t.Fatal(err)
	}

	if err := d.UIDs.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.UIDs.GetOrCreate(kindTagV, "usurper"); err != nil {
		t.Fatal(err)
	}
	fresh := p
	fresh.Tags = maps.Clone(p.Tags)
	a, errA := codec.Encode(&p)
	b, errB := codec.Encode(&fresh)
	if errA != nil || errB != nil || !bytes.Equal(a.Row, b.Row) {
		t.Fatalf("after a reload: interned %x (%v), fresh %x (%v)", a.Row, errA, b.Row, errB)
	}
	if bytes.Equal(a.Row, stale.Row) {
		t.Fatal("the forgotten id's new name now owns this series' row")
	}
	m, _, err := codec.decodeRow(a.Row)
	if err != nil || !maps.Equal(m.tags, p.Tags) {
		t.Fatalf("row reads back as %v (%v), want %v", m.tags, err, p.Tags)
	}
}

// TestEncodeConcurrentSeries: writers meeting the same new series at
// once — interning their tag sets and filling the codec's cache
// concurrently — encode every point to the bytes of its private-map twin.
func TestEncodeConcurrentSeries(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 4})
	codec := NewCodec(d.UIDs, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 700; u < 708; u++ {
				for s := 0; s < 16; s++ {
					p := EnergyPoint(u, s, int64(w*3600+s), float64(w))
					fresh := p
					fresh.Tags = maps.Clone(p.Tags)
					a, errA := codec.Encode(&p)
					b, errB := codec.Encode(&fresh)
					if errA != nil || errB != nil || !bytes.Equal(a.Row, b.Row) || !bytes.Equal(a.Qual, b.Qual) || !bytes.Equal(a.Value, b.Value) {
						t.Errorf("writer %d, unit %d sensor %d: interned %x (%v), fresh %x (%v)", w, u, s, a.Row, errA, b.Row, errB)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
