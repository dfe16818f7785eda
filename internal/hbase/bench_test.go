package hbase

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

func benchCluster(b *testing.B, nodes int) (*Cluster, *Client) {
	b.Helper()
	c, err := NewCluster(Config{RegionServers: nodes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	if err := c.CreateTable(byteSplits(nodes * 2)); err != nil {
		b.Fatal(err)
	}
	return c, c.NewClient(ClientConfig{})
}

func BenchmarkClientPut(b *testing.B) {
	_, cl := benchCluster(b, 4)
	const batch = 500
	cells := make([]Cell, batch)
	var seq [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			binary.BigEndian.PutUint64(seq[:], uint64(i*batch+j))
			cells[j] = Cell{Row: append([]byte{byte(j)}, seq[:]...), Qual: []byte{0, 1}, Value: seq[:]}
		}
		if err := cl.Put(cells); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkClientScan(b *testing.B) {
	_, cl := benchCluster(b, 4)
	var cells []Cell
	var seq [8]byte
	for i := 0; i < 5000; i++ {
		binary.BigEndian.PutUint64(seq[:], uint64(i))
		cells = append(cells, Cell{Row: append([]byte{byte(i % 251)}, seq[:]...), Qual: []byte{0}, Value: seq[:]})
	}
	if err := cl.Put(cells); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.Scan(nil, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 5000 {
			b.Fatalf("scan = %d", len(got))
		}
	}
	b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "cells-read/s")
}

func BenchmarkMemstoreFlushReopen(b *testing.B) {
	c, cl := benchCluster(b, 2)
	var cells []Cell
	var seq [8]byte
	for i := 0; i < 2000; i++ {
		binary.BigEndian.PutUint64(seq[:], uint64(i))
		cells = append(cells, Cell{Row: append([]byte(nil), seq[:]...), Qual: []byte{0}, Value: seq[:]})
	}
	if err := cl.Put(cells); err != nil {
		b.Fatal(err)
	}
	m, err := c.ActiveMaster()
	if err != nil {
		b.Fatal(err)
	}
	ri := m.Regions()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.net.Call(context.Background(), rsAddr(ri.Server), "flush", &FlushRequest{Region: ri.ID}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := openRegion(ri, c.dfs); err != nil {
			b.Fatal(err)
		}
	}
}

// seriesRow is a TSDB-shaped row key: series s, hour h.
func seriesRow(s, h int) []byte { return []byte(fmt.Sprintf("m-%02d-h%03d", s, h)) }

// offsetQual is a TSDB-shaped qualifier: the second within the hour.
func offsetQual(sec int) []byte { return binary.BigEndian.AppendUint16(nil, uint16(sec)) }

// BenchmarkRegionScanNarrow pins the hot tier's read cost model: a scan
// costs the range it asks for, not the region it lands in. The region
// holds 20 000 slots — 4 series × 20 hours × 250 samples — of which the
// 19 000 of the first 19 hours were deleted after a seal; the scan asks
// for one series' hot row (250 cells, about five minutes at 1 Hz).
// visited/cell is how many cells the scan stepped over per cell it
// returned: 1 when the cost follows the answer, 80 if it walked every
// slot the region was ever given.
func BenchmarkRegionScanNarrow(b *testing.B) {
	const series, hours, perRow = 4, 20, 250
	r := newRegion(RegionInfo{ID: 1})
	seq := int64(0)
	for h := 0; h < hours; h++ {
		for sec := 0; sec < perRow; sec++ {
			for s := 0; s < series; s++ {
				seq++
				r.put([]Cell{{Row: seriesRow(s, h), Qual: offsetQual(sec), Value: make([]byte, 8)}}, seq)
			}
		}
	}
	for h := 0; h < hours-1; h++ {
		for s := 0; s < series; s++ {
			dead := make([]Cell, perRow)
			for sec := range dead {
				dead[sec] = Cell{Row: seriesRow(s, h), Qual: offsetQual(sec), Tomb: true}
			}
			seq++
			r.put(dead, seq)
		}
	}
	start, end := seriesRow(2, hours-1), seriesRow(2, hours)
	r.walked.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	returned := 0
	for i := 0; i < b.N; i++ {
		returned += len(r.scan(start, end, 0))
	}
	if returned != perRow*b.N {
		b.Fatalf("scan returned %d cells per op, want %d", returned/b.N, perRow)
	}
	b.ReportMetric(float64(r.walked.Load())/float64(returned), "visited/cell")
}

// BenchmarkRegionPutInOrder is the write side of the same layout: one
// op is one second of a 16-series fleet — 16 cells, each the next
// qualifier of its series' current row — which is what the TSDB sends.
// A fresh region starts every simulated hour so memory stays bounded;
// the first hour's opening seconds run before the timer, so a one-op run
// (bench-allocs) measures an append into grown arenas — the steady state
// — not the region's creation.
func BenchmarkRegionPutInOrder(b *testing.B) {
	const series, warm = 16, 100
	rows := make([][]byte, series)
	batch := make([]Cell, series)
	val := make([]byte, 8)
	var r *region
	second := func(i int) {
		sec := i % 3600
		if sec == 0 {
			r = newRegion(RegionInfo{ID: 1})
			for s := range rows {
				rows[s] = seriesRow(s, i/3600)
			}
		}
		qual := offsetQual(sec)
		for s := range batch {
			batch[s] = Cell{Row: rows[s], Qual: qual, Value: val}
		}
		r.put(batch, int64(i+1))
	}
	for i := 0; i < warm; i++ {
		second(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second(warm + i)
	}
	b.ReportMetric(float64(series*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkHotTierFootprint prices a cell in memory: one op puts an hour
// of a 16-series fleet (57 600 in-order cells, one put RPC per second)
// through a region server, and heap-B/cell is the live heap that added,
// per cell, after a GC. hot: WAL record and memstore entry both.
// flushed: the same hour, then one flush — the WAL cut to nothing and
// the memstore empty, what is left is the store file's rows and the
// bytes HDFS holds of them.
func BenchmarkHotTierFootprint(b *testing.B) {
	b.Run("hot", func(b *testing.B) { benchFootprint(b, false) })
	b.Run("flushed", func(b *testing.B) { benchFootprint(b, true) })
}

func benchFootprint(b *testing.B, flush bool) {
	const series, seconds = 16, 3600
	rows := make([][]byte, series)
	for s := range rows {
		rows[s] = seriesRow(s, 0)
	}
	quals := make([][]byte, seconds)
	for sec := range quals {
		quals[sec] = offsetQual(sec)
	}
	batch := make([]Cell, series)
	val := make([]byte, 8)
	var before, after runtime.MemStats
	var heap uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewCluster(Config{RegionServers: 1, FlushThresholdBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.CreateTable(nil); err != nil {
			b.Fatal(err)
		}
		rs := c.RegionServers()[0]
		req := &PutRequest{Region: rs.regionIDs()[0], Cells: batch}
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for sec := 0; sec < seconds; sec++ {
			for s := range batch {
				batch[s] = Cell{Row: rows[s], Qual: quals[sec], Value: val}
			}
			if err := rs.handlePut(req); err != nil {
				b.Fatal(err)
			}
		}
		if flush {
			if err := rs.handleFlush(&FlushRequest{Region: req.Region}); err != nil {
				b.Fatal(err)
			}
			if c.WALBytes() != 0 || c.MemstoreBytes() != 0 || c.StoreFileBytes() == 0 {
				b.Fatalf("after the flush: %d WAL bytes, %d memstore bytes, %d store-file bytes", c.WALBytes(), c.MemstoreBytes(), c.StoreFileBytes())
			}
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap += after.HeapAlloc - before.HeapAlloc
		c.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(heap)/float64(b.N*series*seconds), "heap-B/cell")
}
