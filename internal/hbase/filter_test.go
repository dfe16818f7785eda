package hbase

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/hdfs"
)

// Row keys shaped like a TSDB data row: a 3-byte metric id, a 4-byte
// hour base, then 6-byte (tag key, tag value) id pairs sorted by key —
// unit (key 1) and sensor (key 2). Series s is unit s/4, sensor s%4.
const (
	pairsAt   = 7
	pairWidth = 6
	fleetSize = 16
)

func tagPair(k, v uint32) []byte {
	p := make([]byte, pairWidth)
	p[0], p[1], p[2] = byte(k>>16), byte(k>>8), byte(k)
	p[3], p[4], p[5] = byte(v>>16), byte(v>>8), byte(v)
	return p
}

func unitPair(u int) []byte   { return tagPair(1, uint32(100+u)) }
func sensorPair(s int) []byte { return tagPair(2, uint32(200+s)) }

func fleetRow(series, hour int) []byte {
	key := []byte{0, 0, 1}
	key = binary.BigEndian.AppendUint32(key, uint32(hour*3600))
	key = append(key, unitPair(series/4)...)
	return append(key, sensorPair(series%4)...)
}

func pairFilter(pairs ...[]byte) *RowFilter {
	f := &RowFilter{Offset: pairsAt, Width: pairWidth}
	for _, p := range pairs {
		f.Want = append(f.Want, p...)
	}
	return f
}

func TestRowFilterMatch(t *testing.T) {
	row := fleetRow(6, 0) // unit 1, sensor 2
	cases := []struct {
		name string
		keep *RowFilter
		key  []byte
		want bool
	}{
		{"nil filter", nil, row, true},
		{"no pairs", pairFilter(), row, true},
		{"full tags", pairFilter(unitPair(1), sensorPair(2)), row, true},
		{"unit only", pairFilter(unitPair(1)), row, true},
		{"sensor only", pairFilter(sensorPair(2)), row, true},
		{"other unit", pairFilter(unitPair(2)), row, false},
		{"other sensor", pairFilter(unitPair(1), sensorPair(3)), row, false},
		{"a key the row lacks", pairFilter(unitPair(1), tagPair(3, 1)), row, false},
		{"key shorter than the offset", pairFilter(unitPair(1)), row[:5], false},
		{"key cut inside a pair", pairFilter(sensorPair(2)), row[:len(row)-1], false},
		{"no width", &RowFilter{Offset: pairsAt, Want: unitPair(1)}, row, false},
	}
	for _, c := range cases {
		if got := c.keep.Match(c.key); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
}

// layeredFleetRegion builds a region whose fleet rows are spread over
// every source a scan merges: hour 0 flushed to a store file, then
// overwrites, deletes and hour 1 in a flush snapshot still in flight,
// then more of each in the live memstore.
func layeredFleetRegion(t *testing.T) *region {
	t.Helper()
	r := newRegion(RegionInfo{ID: 38})
	seq := int64(0)
	put := func(hour, from, to int, val string, tomb func(sec int) bool) {
		var batch []Cell
		for s := 0; s < fleetSize; s++ {
			for sec := from; sec < to; sec++ {
				c := Cell{Row: fleetRow(s, hour), Qual: offsetQual(sec), Value: []byte(fmt.Sprintf("%s%d", val, s))}
				c.Tomb = tomb != nil && tomb(sec+s)
				batch = append(batch, c)
			}
		}
		seq++
		r.put(batch, seq)
	}
	put(0, 0, 40, "file", nil)
	if _, err := r.flush(hdfs.NewCluster()); err != nil {
		t.Fatal(err)
	}
	put(0, 20, 30, "snap", func(i int) bool { return i%5 == 0 })
	put(1, 0, 30, "snap", nil)
	if snap, _ := r.snapshot(); snap == nil {
		t.Fatal("no snapshot taken")
	}
	put(0, 25, 35, "mem", func(i int) bool { return i%7 == 0 })
	put(1, 10, 50, "mem", func(i int) bool { return i%3 == 0 })
	if len(r.files) != 1 || r.snap == nil || len(r.mem.rows) == 0 {
		t.Fatalf("region layers: %d store files, snapshot %v, %d memstore rows", len(r.files), r.snap != nil, len(r.mem.rows))
	}
	return r
}

// TestRegionScanFilterEqualsFilterAfterMerge: a scan that drops
// non-matching rows from each source before merging returns exactly the
// unfiltered merge filtered afterwards — for a full tag set, one tag, no
// tags and a pair no row carries, over whole and partial ranges, and
// under a limit that only kept cells count toward.
func TestRegionScanFilterEqualsFilterAfterMerge(t *testing.T) {
	r := layeredFleetRegion(t)
	filters := map[string]*RowFilter{
		"no filter":     nil,
		"full tags":     pairFilter(unitPair(1), sensorPair(3)),
		"unit only":     pairFilter(unitPair(2)),
		"sensor only":   pairFilter(sensorPair(0)),
		"missing value": pairFilter(unitPair(9)),
	}
	ranges := [][2][]byte{{nil, nil}, {fleetRow(0, 1), nil}, {nil, fleetRow(0, 1)}, {fleetRow(5, 0), fleetRow(11, 1)}}
	for name, keep := range filters {
		for _, rg := range ranges {
			var want []Cell
			for _, c := range r.scan(rg[0], rg[1], 0, nil) {
				if keep.Match(c.Row) {
					want = append(want, c)
				}
			}
			if got := r.scan(rg[0], rg[1], 0, keep); render(got) != render(want) {
				t.Fatalf("%s over [%x, %x): filtered scan gave %d cells, filter after merge %d", name, rg[0], rg[1], len(got), len(want))
			}
			if name == "full tags" && len(want) == 0 {
				t.Fatal("the one-series filter kept nothing")
			}
			for _, limit := range []int{1, 7, len(want), len(want) + 3} {
				got := r.scan(rg[0], rg[1], limit, keep)
				if n := min(limit, len(want)); render(got) != render(want[:n]) {
					t.Fatalf("%s limit %d: got %d cells, want the first %d kept ones", name, limit, len(got), n)
				}
			}
		}
	}
}

// TestFilteredScanWalksOnlyItsSeries is the count behind the filter, in
// the style of BenchmarkRegionScanNarrow's visited/cell: a one-series
// scan over a 16-series metric, rows in a store file and the memstore,
// steps over its own series' cells and no other.
func TestFilteredScanWalksOnlyItsSeries(t *testing.T) {
	const perRow = 300
	r := newRegion(RegionInfo{ID: 39})
	val := make([]byte, 8)
	seq := int64(0)
	for hour := 0; hour < 2; hour++ {
		if hour == 1 {
			if _, err := r.flush(hdfs.NewCluster()); err != nil {
				t.Fatal(err)
			}
		}
		for sec := 0; sec < perRow; sec++ {
			batch := make([]Cell, fleetSize)
			for s := range batch {
				batch[s] = Cell{Row: fleetRow(s, hour), Qual: offsetQual(sec), Value: val}
			}
			seq++
			r.put(batch, seq)
		}
	}
	r.walked.Store(0)
	got := r.scan(nil, nil, 0, pairFilter(unitPair(1), sensorPair(3)))
	if len(got) != 2*perRow {
		t.Fatalf("one series: %d cells, want %d", len(got), 2*perRow)
	}
	if walked := r.walked.Load(); walked != int64(len(got)) {
		t.Fatalf("one-series scan walked %d cells for %d returned", walked, len(got))
	}
	r.walked.Store(0)
	if all := r.scan(nil, nil, 0, nil); len(all) != fleetSize*2*perRow || r.walked.Load() != int64(len(all)) {
		t.Fatalf("unfiltered: %d cells, %d walked; want %d", len(all), r.walked.Load(), fleetSize*2*perRow)
	}
}

// TestClientLimitCountsKeptCells: across regions, a limited filtered
// scan stops once it holds limit kept cells — the regions it skips and
// the rows the filter drops do not count toward it.
func TestClientLimitCountsKeptCells(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable([][]byte{fleetRow(4, 0), fleetRow(8, 0), fleetRow(12, 0)}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	var cells []Cell
	for s := 0; s < fleetSize; s++ {
		for sec := 0; sec < 10; sec++ {
			cells = append(cells, Cell{Row: fleetRow(s, 0), Qual: offsetQual(sec), Value: []byte{byte(s)}})
		}
	}
	if err := cl.Put(cells); err != nil {
		t.Fatal(err)
	}
	keep := pairFilter(sensorPair(1)) // series 1, 5, 9, 13: one per region
	all, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []Cell
	for _, c := range all {
		if keep.Match(c.Row) {
			want = append(want, c)
		}
	}
	if len(want) != 40 {
		t.Fatalf("%d kept cells, want 40", len(want))
	}
	for _, limit := range []int{0, 1, 10, 15, 40, 41} {
		got, err := cl.ScanContext(t.Context(), nil, nil, limit, keep)
		if err != nil {
			t.Fatal(err)
		}
		n := len(want)
		if limit > 0 {
			n = min(limit, n)
		}
		if render(got) != render(want[:n]) {
			t.Fatalf("limit %d: got %d cells, want the first %d kept ones", limit, len(got), n)
		}
	}
}
