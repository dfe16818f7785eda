package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// Model estimation constants.
const (
	// energyFraction selects the retained subspace dimension K: the
	// smallest K whose eigenvalues capture this fraction of total
	// variance.
	energyFraction = 0.9
	// maxComponents caps K. The online cost per observation is one
	// Sensors×K matrix multiplication, so K bounds evaluation latency.
	maxComponents = 10
	// minSigma floors per-sensor standard deviations to keep z-scores
	// finite on (near-)constant channels.
	minSigma = 1e-9
)

// TrainUnit fits the model for one unit from a training window given as
// rows (observations) × sensors — the §IV-A estimation: the window's
// covariance, its eigendecomposition, and the mean, variance and
// leading components kept from them. The window must contain at least
// two rows of equal length and should predate any fault onset (the
// trainer has no way to know; feeding it faulty data biases the
// benchmark, exactly as in the real system).
func TrainUnit(unit int, window [][]float64) (*Model, error) {
	if len(window) < 2 {
		return nil, fmt.Errorf("core: unit %d training window has %d rows, need ≥2", unit, len(window))
	}
	x, err := linalg.FromRows(window)
	if err != nil {
		return nil, fmt.Errorf("core: unit %d training window: %w", unit, err)
	}
	cov, mean, err := x.Covariance()
	if err != nil {
		return nil, fmt.Errorf("core: unit %d covariance: %w", unit, err)
	}
	eig, vecs, err := linalg.EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("core: unit %d covariance SVD: %w", unit, err)
	}
	return modelFromSVD(unit, x.Rows, mean, eig, vecs)
}

// modelFromSVD converts the covariance eigenstructure (eigenvalues
// descending, eigenvectors as the columns of vecs) into a Model,
// picking K by the energy criterion.
func modelFromSVD(unit, rows int, mean, eig []float64, vecs *linalg.Matrix) (*Model, error) {
	sensors := len(mean)
	total := 0.0
	for i, l := range eig {
		if l < 0 {
			eig[i] = 0 // covariance is PSD; clamp numeric noise
		}
		total += eig[i]
	}
	k := 1
	if total > 0 {
		cum := 0.0
		for i, l := range eig {
			cum += l
			k = i + 1
			if cum/total >= energyFraction {
				break
			}
		}
	}
	k = min(k, maxComponents, sensors)
	sigma := make([]float64, sensors)
	// Per-sensor variance is recovered from the eigen-decomposition:
	// diag(Σ) = Σ_j λ_j v_{ij}². (The paper phrases this as obtaining
	// "the mean and variance" from the decomposition.)
	for i := 0; i < sensors; i++ {
		v := 0.0
		for j := 0; j < vecs.Cols; j++ {
			c := vecs.At(i, j)
			v += eig[j] * c * c
		}
		sigma[i] = sqrt(max(v, minSigma*minSigma))
	}
	m := &Model{
		Unit:        unit,
		Sensors:     sensors,
		TrainedRows: rows,
		Mean:        mean,
		Sigma:       sigma,
		Eigenvalues: eig[:k:k],
		Components:  topColumns(vecs, k),
		K:           k,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WindowSource supplies training windows per unit; implemented by the
// simulated fleet and by the TSDB-reading adapter.
type WindowSource interface {
	// TrainingWindow returns unit u's window as rows × sensors.
	TrainingWindow(unit int) ([][]float64, error)
}

// WindowFunc adapts a function to WindowSource.
type WindowFunc func(unit int) ([][]float64, error)

// TrainingWindow implements WindowSource.
func (f WindowFunc) TrainingWindow(unit int) ([][]float64, error) { return f(unit) }

// TrainFleet trains models for the given units. With concurrent=false
// it processes one unit at a time, matching the paper's current system
// ("can deal with one machine at a time"), and stops at the first
// failure; with concurrent=true it trains up to GOMAXPROCS units at
// once, the paper's stated ongoing work ("utilize concurrency of Spark
// to scale up workload"), waits for every unit and reports each one
// that failed. Nothing is retried. Trained models are saved through
// catalog when it is non-nil.
func TrainFleet(units []int, src WindowSource, catalog *ModelCatalog, concurrent bool) (map[int]*Model, error) {
	models := make([]*Model, len(units))
	if !concurrent {
		for i, u := range units {
			m, err := trainAndSave(u, src, catalog)
			if err != nil {
				return nil, err
			}
			models[i] = m
		}
	} else {
		errs := make([]error, len(units))
		slots := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, u := range units {
			slots <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				models[i], errs[i] = trainAndSave(u, src, catalog)
				<-slots
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	}
	out := make(map[int]*Model, len(units))
	for i, u := range units {
		out[u] = models[i]
	}
	return out, nil
}

func trainAndSave(unit int, src WindowSource, catalog *ModelCatalog) (*Model, error) {
	window, err := src.TrainingWindow(unit)
	if err != nil {
		return nil, fmt.Errorf("core: unit %d window: %w", unit, err)
	}
	m, err := TrainUnit(unit, window)
	if err != nil {
		return nil, err
	}
	if catalog != nil {
		if err := catalog.Save(m); err != nil {
			return nil, fmt.Errorf("core: unit %d save: %w", unit, err)
		}
	}
	return m, nil
}
