package zk

import (
	"context"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
)

// Election is the standard ZooKeeper leader-election recipe: each
// candidate creates an ephemeral sequential znode under the election
// path; the lowest sequence number is the leader. The HBase master and
// its backup use this, so killing the active master promotes the
// backup automatically — the failover the paper's deployment relies on
// (one HMaster, one BackupHMaster).
type Election struct {
	session Client
	root    string
	me      string // the candidate znode this session created
	id      string // human-readable candidate identity
}

// EnsurePath creates p and any missing ancestors as persistent znodes,
// ignoring nodes that already exist (like ZooKeeper's creatingParents
// recipe).
func EnsurePath(s Client, p string) error {
	p = normalize(p)
	if p == "/" {
		return nil
	}
	parts := strings.Split(strings.TrimPrefix(p, "/"), "/")
	cur := ""
	for _, part := range parts {
		cur += "/" + part
		if err := s.Create(cur, nil, false); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return nil
}

// JoinElection registers the candidate id under root (created when
// missing) and returns the election handle.
func JoinElection(s Client, root, id string) (*Election, error) {
	root = normalize(root)
	if err := EnsurePath(s, root); err != nil {
		return nil, fmt.Errorf("zk: create election root: %w", err)
	}
	me, err := s.CreateSequential(root+"/candidate-", []byte(id), true)
	if err != nil {
		return nil, fmt.Errorf("zk: join election: %w", err)
	}
	return &Election{session: s, root: root, me: me, id: id}, nil
}

// candidates returns the sorted candidate znode names.
func (e *Election) candidates() ([]string, error) {
	kids, err := e.session.Children(e.root)
	if err != nil {
		return nil, err
	}
	sort.Strings(kids)
	return kids, nil
}

// IsLeader reports whether this candidate currently holds leadership.
func (e *Election) IsLeader() (bool, error) {
	kids, err := e.candidates()
	if err != nil {
		return false, err
	}
	if len(kids) == 0 {
		return false, nil
	}
	return path.Base(e.me) == kids[0], nil
}

// Leader returns the identity payload of the current leader.
func (e *Election) Leader() (string, error) {
	kids, err := e.candidates()
	if err != nil {
		return "", err
	}
	if len(kids) == 0 {
		return "", ErrNoNode
	}
	data, _, err := e.session.Get(e.root + "/" + kids[0])
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// WatchLeadership arms a one-shot watch that fires when the candidate
// set changes (e.g. the leader's session expires), after which callers
// re-check IsLeader.
func (e *Election) WatchLeadership() (<-chan Event, error) {
	return e.session.WatchChildren(e.root)
}

// AwaitLeadership blocks until this candidate leads or ctx is done —
// the context-aware campaign loop: check, arm a watch, re-check,
// wait, re-arm (watches are one-shot, like real ZooKeeper). The
// leading-already fast path arms no watch, so repeated calls from a
// sitting leader don't pile dead channels onto the server. A watch
// armed before blocking stays registered if ctx is cancelled (or the
// re-check wins) until the next membership change fires it or the
// session closes — the inherent cost of one-shot watches: one buffered
// channel per abandoned wait (on a RemoteClient, one parked call).
func (e *Election) AwaitLeadership(ctx context.Context) error {
	for {
		lead, err := e.IsLeader()
		if err != nil {
			return err
		}
		if lead {
			return nil
		}
		ch, err := e.WatchLeadership()
		if err != nil {
			return err
		}
		// Re-check after arming so a change between the check and the
		// watch registration is never missed.
		lead, err = e.IsLeader()
		if err != nil {
			return err
		}
		if lead {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Resign withdraws this candidacy.
func (e *Election) Resign() error {
	return e.session.Delete(e.me)
}
