package hdfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/faultinject"
)

func TestWriteReadRoundTrip(t *testing.T) {
	c := NewCluster()
	data := bytes.Repeat([]byte("sensor-data-"), 10000)
	if err := c.WriteFile("/models/unit-1", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/models/unit-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
}

// TestFileOwnsItsBytes: a file is a copy of what was written, and a
// read returns a copy of the file, so neither the writer's buffer nor a
// reader's slice can change what the next read sees.
func TestFileOwnsItsBytes(t *testing.T) {
	c := NewCluster()
	buf := []byte("store-file-rows")
	must(t, c.WriteFile("/hbase/t/r/sf-1", buf))
	buf[0] = 'X'
	got, err := c.ReadFile("/hbase/t/r/sf-1")
	if err != nil {
		t.Fatal(err)
	}
	got[1] = 'Y'
	again, err := c.ReadFile("/hbase/t/r/sf-1")
	if err != nil || string(again) != "store-file-rows" {
		t.Fatalf("file reads %q (%v) after the written buffer and a read slice were modified", again, err)
	}
}

func TestEmptyFile(t *testing.T) {
	c := NewCluster()
	if err := c.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read = %v, %v", got, err)
	}
}

func TestReadMissing(t *testing.T) {
	c := NewCluster()
	if _, err := c.ReadFile("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := c.DeleteFile("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteReplacesContent(t *testing.T) {
	c := NewCluster()
	must(t, c.WriteFile("/f", []byte("first version, the longer one")))
	must(t, c.WriteFile("/f", []byte("second")))
	got, err := c.ReadFile("/f")
	if err != nil || string(got) != "second" {
		t.Fatalf("got %q, %v", got, err)
	}
	if files := c.ListFiles("/"); len(files) != 1 {
		t.Fatalf("files after an overwrite = %v, want one", files)
	}
}

// TestWriteFailsUnderInjectedFault: an "hdfs/write/" rule fails the
// write it matches and stores nothing; other paths and a cleared rule
// write as before.
func TestWriteFailsUnderInjectedFault(t *testing.T) {
	c := NewCluster()
	inj := faultinject.New(1)
	c.SetFaults(inj)
	inj.Set("flush", faultinject.Rule{Op: "hdfs/write/hbase/", ErrorRate: 1})
	if err := c.WriteFile("/hbase/t/r/sf-1", []byte("x")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if c.Exists("/hbase/t/r/sf-1") {
		t.Fatal("a failed write left a file")
	}
	must(t, c.WriteFile("/detector/models/unit-1", []byte("m")))
	inj.Clear("flush")
	must(t, c.WriteFile("/hbase/t/r/sf-1", []byte("x")))
}

func TestListFilesAndExists(t *testing.T) {
	c := NewCluster()
	must(t, c.WriteFile("/models/unit-1", []byte("a")))
	must(t, c.WriteFile("/models/unit-2", []byte("b")))
	must(t, c.WriteFile("/wal/rs-1", []byte("c")))
	got := c.ListFiles("/models/")
	if len(got) != 2 || got[0] != "/models/unit-1" {
		t.Fatalf("list = %v", got)
	}
	if !c.Exists("/wal/rs-1") || c.Exists("/wal/rs-2") {
		t.Fatal("Exists wrong")
	}
	must(t, c.DeleteFile("/wal/rs-1"))
	if c.Exists("/wal/rs-1") {
		t.Fatal("deleted file still exists")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := NewCluster()
	f := func(data []byte) bool {
		if err := c.WriteFile("/prop", data); err != nil {
			return false
		}
		got, err := c.ReadFile("/prop")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBlobStoreAdapter holds Store to the core.BlobStore contract: a
// put reads back, a missing blob is an error, names list sorted by
// prefix with the store's own prefix stripped.
func TestBlobStoreAdapter(t *testing.T) {
	c := NewCluster()
	s := &Store{C: c, Prefix: "/detector/"}
	must(t, s.Put("models/unit-7", []byte("model-bytes")))
	must(t, s.Put("models/unit-1", []byte("abc")))
	must(t, s.Put("other/x", []byte("y")))
	got, err := s.Get("models/unit-7")
	if err != nil || string(got) != "model-bytes" {
		t.Fatalf("get = %q, %v", got, err)
	}
	names, err := s.List("models/")
	if err != nil || len(names) != 2 || names[0] != "models/unit-1" || names[1] != "models/unit-7" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("missing blob must error")
	}
	if !c.Exists("/detector/models/unit-1") {
		t.Fatal("blob not stored under the store's prefix")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
