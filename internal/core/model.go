// Package core implements the paper's primary contribution: anomaly
// detection for multi-sensor power-generating assets with controlled
// false-alarm rates.
//
// The design follows §IV of the paper exactly:
//
//   - Offline training is two functions. TrainUnit computes one unit's
//     covariance matrix of the sensor streams (linalg), takes its
//     eigendecomposition to obtain the mean/variance structure and the
//     leading components; TrainFleet runs it per unit, one at a time or
//     up to GOMAXPROCS at once, and caches each Model through a
//     pluggable BlobStore (the paper caches to HDFS).
//   - Online evaluation (Evaluator) is one matrix multiplication per
//     iteration: a batch of observations is centered and projected onto
//     the dominant eigen-subspace, producing per-sensor z-statistics
//     and a per-unit Hotelling T² statistic; per-sensor p-values are
//     then corrected with the False Discovery Rate procedure before
//     anything is flagged.
//   - MGDDetector adapts the evaluator to the pluggable mllib.Detector
//     interface; the detection loop that feeds it rows and writes its
//     flags to an AnomalySink lives in package sentinel (DetectorPool).
//
// # Scratch reuse and report retention
//
// The online path is allocation-conscious. Evaluator.EvaluateBatchInto
// evaluates into a caller-owned Arena and returns reports whose slices
// are arena-backed: they are valid only until the arena's next use, and
// retaining one past that point requires Report.Clone (copy-on-retain).
// Evaluator.EvaluateBatch and Evaluator.Evaluate wrap that path with a
// pooled arena and detach their results into a handful of fresh backing
// arrays, so their reports are caller-owned and may be kept forever.
package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/linalg"
)

// ErrNotTrained reports a missing model.
var ErrNotTrained = errors.New("core: model not trained")

// Model is the per-unit benchmark the online evaluator tests against.
// It is exactly the artifact §IV-A caches to HDFS after offline
// training: the mean and variance of every sensor plus the dominant
// eigenstructure of the sensor covariance matrix.
type Model struct {
	Unit        int
	Sensors     int
	TrainedRows int

	Mean  []float64 // per-sensor training mean
	Sigma []float64 // per-sensor training standard deviation

	// Eigenvalues (descending) and the retained top-K eigenvectors of
	// the training covariance, used for the unit-level T² statistic.
	Eigenvalues []float64
	Components  *linalg.Matrix // Sensors×K
	K           int
}

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if m.Sensors <= 0 {
		return fmt.Errorf("core: model for unit %d has no sensors", m.Unit)
	}
	if len(m.Mean) != m.Sensors || len(m.Sigma) != m.Sensors {
		return fmt.Errorf("core: model for unit %d has inconsistent moment lengths", m.Unit)
	}
	if m.K <= 0 || m.Components == nil || m.Components.Rows != m.Sensors || m.Components.Cols != m.K {
		return fmt.Errorf("core: model for unit %d has bad subspace shape", m.Unit)
	}
	if len(m.Eigenvalues) < m.K {
		return fmt.Errorf("core: model for unit %d has %d eigenvalues < K=%d", m.Unit, len(m.Eigenvalues), m.K)
	}
	for _, s := range m.Sigma {
		if s < 0 || math.IsNaN(s) {
			return fmt.Errorf("core: model for unit %d has invalid sigma", m.Unit)
		}
	}
	return nil
}

// Encode serializes the model with gob.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("core: encode model: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeModel deserializes a model produced by Encode.
func DecodeModel(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// BlobStore is the persistence seam for trained models: the trainer
// writes through it and the evaluator loads through it. internal/hdfs
// provides the distributed implementation the paper uses; DirStore and
// MemStore serve tests and single-node deployments.
type BlobStore interface {
	// Put stores data under name, replacing any previous content.
	Put(name string, data []byte) error
	// Get retrieves the content stored under name.
	Get(name string) ([]byte, error)
	// List returns the stored names with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// MemStore is an in-memory BlobStore for tests.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// Put implements BlobStore.
func (s *MemStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.blobs[name] = cp
	return nil
}

// Get implements BlobStore.
func (s *MemStore) Get(name string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("core: blob %q: %w", name, os.ErrNotExist)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// List implements BlobStore.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	for n := range s.blobs {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// DirStore is a BlobStore over a local directory.
type DirStore struct{ dir string }

// NewDirStore creates (if needed) and wraps dir.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create store dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Put implements BlobStore.
func (s *DirStore) Put(name string, data []byte) error {
	return os.WriteFile(filepath.Join(s.dir, encodeName(name)), data, 0o644)
}

// Get implements BlobStore.
func (s *DirStore) Get(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, encodeName(name)))
}

// List implements BlobStore.
func (s *DirStore) List(prefix string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := decodeName(e.Name())
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// encodeName flattens slash-separated blob names onto a single
// directory level.
func encodeName(name string) string { return strings.ReplaceAll(name, "/", "__") }

func decodeName(file string) string { return strings.ReplaceAll(file, "__", "/") }

// ModelCatalog stores and loads Models through a BlobStore using the
// canonical "models/unit-<id>" naming scheme.
type ModelCatalog struct {
	Store BlobStore
}

// modelName returns the blob name for a unit's model.
func modelName(unit int) string { return "models/unit-" + strconv.Itoa(unit) }

// Save persists the model for its unit.
func (c *ModelCatalog) Save(m *Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return c.Store.Put(modelName(m.Unit), data)
}

// Load retrieves the model for unit, or ErrNotTrained when absent.
func (c *ModelCatalog) Load(unit int) (*Model, error) {
	data, err := c.Store.Get(modelName(unit))
	if err != nil {
		return nil, fmt.Errorf("%w (unit %d): %v", ErrNotTrained, unit, err)
	}
	return DecodeModel(data)
}

// Units lists the unit ids with stored models.
func (c *ModelCatalog) Units() ([]int, error) {
	names, err := c.Store.List("models/unit-")
	if err != nil {
		return nil, err
	}
	units := make([]int, 0, len(names))
	for _, n := range names {
		id, err := strconv.Atoi(strings.TrimPrefix(n, "models/unit-"))
		if err == nil {
			units = append(units, id)
		}
	}
	sort.Ints(units)
	return units, nil
}
