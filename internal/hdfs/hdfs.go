// Package hdfs is the file table HDFS stands for here: one in-memory
// map from path to bytes, holding the simulated HBase cluster's store
// files and flush markers, the sealed tier's spilled blocks and the
// anomaly-model cache (§IV-A: "results from the decomposition are cached
// to HDFS").
//
// It keeps one copy of each file. HDFS splits a file into blocks and
// replicates each on several datanodes so that a file outlives a disk;
// every datanode here would live in the one process the file table
// does, and die with it, so replicas would protect nothing and only
// cost memory. Files are immutable once written (like HDFS); overwriting
// replaces the file wholesale. A write can be made to fail through the
// system's fault injector (SetFaults, operation "hdfs/write/<path>").
package hdfs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// ErrNotFound is returned for a path that holds no file.
var ErrNotFound = errors.New("hdfs: file not found")

// Cluster is the filesystem: a mutex-guarded table of files.
type Cluster struct {
	mu    sync.RWMutex
	files map[string][]byte

	// faults, when set, injects on writes ("hdfs/write/<path>").
	faults atomic.Pointer[faultinject.Injector]
}

// NewCluster returns an empty filesystem.
func NewCluster() *Cluster {
	return &Cluster{files: make(map[string][]byte)}
}

// SetFaults installs (or, with nil, removes) a fault injector consulted
// on every WriteFile, as operation "hdfs/write/<path>" (the path without
// its leading slash: "hdfs/write/hbase/" matches every HBase file).
func (c *Cluster) SetFaults(f *faultinject.Injector) { c.faults.Store(f) }

// WriteFile stores a copy of data at path, replacing any existing file:
// the caller may reuse data afterwards.
func (c *Cluster) WriteFile(path string, data []byte) error {
	if f := c.faults.Load(); f.Active() > 0 {
		if err := f.Do(context.Background(), "hdfs/write/"+strings.TrimPrefix(path, "/")); err != nil {
			return fmt.Errorf("hdfs: write %s: %w", path, err)
		}
	}
	cp := append([]byte(nil), data...)
	c.mu.Lock()
	c.files[path] = cp
	c.mu.Unlock()
	return nil
}

// ReadFile returns a fresh copy of path's content: the caller may keep
// or modify it.
func (c *Cluster) ReadFile(path string) ([]byte, error) {
	c.mu.RLock()
	data, ok := c.files[path]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return append(make([]byte, 0, len(data)), data...), nil
}

// DeleteFile removes path.
func (c *Cluster) DeleteFile(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(c.files, path)
	return nil
}

// Exists reports whether path is a file.
func (c *Cluster) Exists(path string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.files[path]
	return ok
}

// ListFiles returns the sorted file paths with the given prefix.
func (c *Cluster) ListFiles(prefix string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for p := range c.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Store adapts the cluster to the BlobStore seam used by the model
// catalog (core.BlobStore): blob names become HDFS paths under prefix.
type Store struct {
	C      *Cluster
	Prefix string
}

// Put implements the blob-store contract.
func (s *Store) Put(name string, data []byte) error {
	return s.C.WriteFile(s.Prefix+name, data)
}

// Get implements the blob-store contract.
func (s *Store) Get(name string) ([]byte, error) {
	return s.C.ReadFile(s.Prefix + name)
}

// List implements the blob-store contract.
func (s *Store) List(prefix string) ([]string, error) {
	files := s.C.ListFiles(s.Prefix + prefix)
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = strings.TrimPrefix(f, s.Prefix)
	}
	return out, nil
}
