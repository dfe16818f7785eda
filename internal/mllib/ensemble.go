package mllib

import (
	"fmt"
	"strings"
)

// Ensemble combines member detectors by row-level voting: a member
// "votes" for an observation row when it raises at least one flag on
// it, and the ensemble emits flags for a row only when at least
// minVotes members voted. The emitted flags are the union of the
// voting members' flags on that row, deduplicated per sensor keeping
// the highest score.
//
// Voting at row granularity is what makes heterogeneous families
// combinable: a CUSUM sensor flag, a regime z-score outlier and an MGD
// FDR rejection all reduce to "this observation is anomalous", which
// is also the granularity the shadow-mode agreement counters and the
// backtest harness score at.
type Ensemble struct {
	members  []Detector
	minVotes int

	dets  []Detections
	votes []int
	curs  []int
	// per-(row being emitted) sensor dedup: at[sensor+1] is the index
	// into out.Flags for the current row, valid when mark[sensor+1]
	// equals the current epoch.
	mark  []int
	at    []int
	epoch int
}

// NewEnsemble combines members with a minVotes voting threshold
// (clamped to [1, len(members)]).
func NewEnsemble(members []Detector, minVotes int, sensors int) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("mllib: ensemble needs at least one member")
	}
	return &Ensemble{
		members:  members,
		minVotes: clampVotes(minVotes, len(members)),
		dets:     make([]Detections, len(members)),
		curs:     make([]int, len(members)),
		mark:     make([]int, sensors+1),
		at:       make([]int, sensors+1),
	}, nil
}

// Name implements Detector.
func (e *Ensemble) Name() string { return "ensemble" }

// Members returns the member names in vote order.
func (e *Ensemble) Members() []string {
	names := make([]string, len(e.members))
	for i, m := range e.members {
		names[i] = m.Name()
	}
	return names
}

// MinVotes returns the effective voting threshold.
func (e *Ensemble) MinVotes() int { return e.minVotes }

// DetectBatchInto implements Detector.
func (e *Ensemble) DetectBatchInto(xs [][]float64, ts []int64, out *Detections) error {
	out.Reset()
	for i, m := range e.members {
		if err := m.DetectBatchInto(xs, ts, &e.dets[i]); err != nil {
			return fmt.Errorf("mllib: ensemble member %s: %w", m.Name(), err)
		}
	}
	if cap(e.votes) < len(xs) {
		e.votes = make([]int, len(xs))
	}
	e.votes = e.votes[:len(xs)]
	clear(e.votes)
	for i := range e.dets {
		flags := e.dets[i].Flags
		last := -1
		for j := range flags {
			if flags[j].Row != last {
				last = flags[j].Row
				e.votes[last]++
			}
		}
	}
	// Emit per row in order; cursors walk each member's (row-sorted)
	// flag list exactly once.
	curs := e.curs
	clear(curs)
	for r := range xs {
		vote := e.votes[r] >= e.minVotes
		e.epoch++
		for i := range e.dets {
			flags := e.dets[i].Flags
			for curs[i] < len(flags) && flags[curs[i]].Row == r {
				f := flags[curs[i]]
				curs[i]++
				if !vote {
					continue
				}
				k := f.Sensor + 1
				if e.mark[k] == e.epoch {
					if f.Score > out.Flags[e.at[k]].Score {
						out.Flags[e.at[k]] = f
					}
					continue
				}
				e.mark[k] = e.epoch
				e.at[k] = len(out.Flags)
				out.Add(f)
			}
			// Skip past rows the cursor may have fallen behind on
			// (member emitted rows we already passed — cannot happen
			// with the row-ascending contract, but stay safe).
			for curs[i] < len(flags) && flags[curs[i]].Row < r {
				curs[i]++
			}
		}
	}
	return nil
}

// clampVotes bounds a voting threshold to [1, members].
func clampVotes(minVotes, members int) int {
	return max(1, min(minVotes, members))
}

// EnsembleConfig returns the member families and the voting threshold
// the "ensemble" factory builds from c: c.Members, or by default
// mgd+cusum+zscore — the paper's model beside the two streaming
// charts — and the "minvotes" param (default 2), clamped to
// [1, len(members)]. The factory and the /api/v1/detectors status both
// read it, so reporting the configuration builds no member (mgd would
// need a trained model).
func EnsembleConfig(c Context) (members []string, minVotes int) {
	members = c.Members
	if len(members) == 0 {
		members = []string{"mgd", "cusum", "zscore"}
	}
	return members, clampVotes(int(c.Param("minvotes", 2)), len(members))
}

func init() {
	Register("ensemble", func(c Context) (Detector, error) {
		names, minVotes := EnsembleConfig(c)
		members := make([]Detector, 0, len(names))
		mc := c
		mc.Members = nil // a member named "ensemble" must not recurse forever
		for _, n := range names {
			if n == "ensemble" {
				return nil, fmt.Errorf("mllib: ensemble cannot contain itself")
			}
			m, err := New(n, mc)
			if err != nil {
				return nil, err
			}
			members = append(members, m)
		}
		return NewEnsemble(members, minVotes, c.Sensors)
	})
}

// String renders the ensemble config for logs.
func (e *Ensemble) String() string {
	return fmt.Sprintf("ensemble(%s, minVotes=%d)", strings.Join(e.Members(), "+"), e.minVotes)
}
