package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"popkit/internal/expt"
)

// journalSet owns the on-disk job journals of a journal-enabled server: one
// expt.Journal file per job ID under dir, plus an in-memory busy set that
// serializes access — at most one request (or its enqueued job) touches a
// given ID at a time. The busy set is process-local on purpose: after a
// crash the new process starts idle, and the journals on disk are the only
// state that matters.
type journalSet struct {
	dir  string
	mu   sync.Mutex
	busy map[string]bool
}

func newJournalSet(dir string) *journalSet {
	return &journalSet{dir: dir, busy: make(map[string]bool)}
}

// errJobBusy means another request currently owns the job ID; the client
// should back off and retry (HTTP 409 + Retry-After).
var errJobBusy = fmt.Errorf("job already in flight")

// acquire claims exclusive use of id. The matching release must run exactly
// once — by the handler on early exits, or by the job's End once it is
// admitted.
func (s *journalSet) acquire(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy[id] {
		return errJobBusy
	}
	s.busy[id] = true
	return nil
}

func (s *journalSet) release(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.busy, id)
}

// open loads (or creates) the journal for id. The caller must hold the ID
// via acquire. The spec must be normalized (journal identity is canonical-
// JSON equality).
func (s *journalSet) open(id string, spec expt.JobSpec) (*expt.Journal, [][]byte, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, nil, err
	}
	return expt.LoadJournal(filepath.Join(s.dir, id+".ndjson"), spec)
}
