package experiments

import (
	"context"
	"sync"

	"repro/internal/program"
)

// artifactKey identifies one store entry: a stage artifact for one benchmark
// prepared on one input, under the stage's content fingerprint (the hash of
// exactly the config fields the stage reads, chained through its upstream
// artifacts' fingerprints).
type artifactKey struct {
	name  string
	input program.InputClass
	stage Stage
	fp    string
}

// artifactEntry is a single-flight store slot: the first requester computes,
// everyone else waits on done.
type artifactEntry struct {
	done chan struct{}
	val  any
	err  error
}

// storeOutcome classifies how a get was satisfied.
type storeOutcome int

const (
	storeCold   storeOutcome = iota // this call executed the computation
	storeHit                        // served from an already-completed entry
	storeShared                     // waited on another caller's in-flight computation
)

// artifactStore is the per-stage, content-addressed artifact cache with
// single-flight deduplication: concurrent requesters of the same key share
// one computation instead of racing to rebuild the artifact.
type artifactStore struct {
	mu      sync.Mutex
	entries map[artifactKey]*artifactEntry
}

func newArtifactStore() *artifactStore {
	return &artifactStore{entries: map[artifactKey]*artifactEntry{}}
}

// peek returns a completed entry's value without counting an outcome or
// waiting on an in-flight computation: ok is false when the key is absent or
// still computing. It exists for two observers of the store, neither of
// which is a request for the artifact: the DAG export's planner (marking
// already-built stages cached) and compute closures reading upstream
// artifacts their caller already ordered.
func (s *artifactStore) peek(key artifactKey) (any, error, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	select {
	case <-e.done:
		return e.val, e.err, true
	default:
		return nil, nil, false
	}
}

// get returns the artifact for key, computing it at most once per store.
// Concurrent requests for the same key share a single in-flight computation.
// Failed computations are cached (an artifact that cannot build will not
// build on retry) except when the failure was a context cancellation, which
// is the computing caller's problem, not the artifact's: the poisoned entry
// is retired and the next requester recomputes under its own context.
func (s *artifactStore) get(ctx context.Context, key artifactKey, compute func() (any, error)) (any, storeOutcome, error) {
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			s.mu.Unlock()
			// A true store hit is an entry that was already complete when we
			// found it; waiting for a concurrent in-flight computation shares
			// its result but is not a cache hit (the computing caller's own
			// events already describe that work).
			outcome := storeShared
			select {
			case <-e.done:
				outcome = storeHit
			default:
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, outcome, ctx.Err()
			}
			if e.err == nil {
				return e.val, outcome, nil
			}
			if !isContextErr(e.err) {
				return nil, outcome, e.err
			}
			// The computing caller was cancelled; retire the poisoned entry
			// (unless someone already replaced it) and retry under our ctx.
			s.mu.Lock()
			if s.entries[key] == e {
				delete(s.entries, key)
			}
			s.mu.Unlock()
			continue
		}
		e := &artifactEntry{done: make(chan struct{})}
		s.entries[key] = e
		s.mu.Unlock()

		e.val, e.err = compute()
		close(e.done)
		if isContextErr(e.err) {
			s.mu.Lock()
			if s.entries[key] == e {
				delete(s.entries, key)
			}
			s.mu.Unlock()
		}
		return e.val, storeCold, e.err
	}
}
