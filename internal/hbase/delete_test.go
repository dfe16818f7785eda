package hbase

import (
	"testing"

	"repro/internal/hdfs"
)

func TestDeleteTombstonesSlot(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	if err := cl.Put([]Cell{cell("a", "1", "x"), cell("a", "2", "y"), cell("b", "1", "z")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete([]Cell{cell("a", "2", "")}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scan after delete = %d cells, want 2", len(got))
	}
	for _, cc := range got {
		if string(cc.Row) == "a" && string(cc.Qual) == "2" {
			t.Fatal("deleted slot still visible")
		}
	}
	if err := cl.Delete(nil); err != nil {
		t.Fatal("empty delete must succeed")
	}
}

func TestTombstoneShadowsFlushedData(t *testing.T) {
	dfs := hdfs.NewCluster(2)
	r := newRegion(RegionInfo{ID: 9})
	r.put([]Cell{cell("k", "q", "old")}, 1)
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	// Tombstone lands in the memstore, shadowing the flushed version.
	tomb := cell("k", "q", "")
	tomb.Tomb = true
	r.put([]Cell{tomb}, 2)
	if got := r.scan(nil, nil, 0); len(got) != 0 {
		t.Fatalf("tombstone did not shadow flushed cell: %v", got)
	}
	// Flush the tombstone too, then compact: the marker is reclaimed.
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.compact(dfs); err != nil {
		t.Fatal(err)
	}
	if got := r.scan(nil, nil, 0); len(got) != 0 {
		t.Fatalf("post-compaction scan = %v, want empty", got)
	}
	if len(r.files) != 1 || fileCells(r) != 0 {
		t.Fatal("major compaction must drop tombstones and shadowed cells")
	}
}

func TestTombstoneSurvivesCrashViaWAL(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	if err := cl.Put([]Cell{cell("a", "1", "x")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete([]Cell{cell("a", "1", "")}); err != nil {
		t.Fatal(err)
	}
	m, _ := c.ActiveMaster()
	if err := c.KillRegionServer(m.Regions()[0].Server); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("deleted cell resurrected after crash recovery: %v", got)
	}
}
