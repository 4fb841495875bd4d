// Package store is popkit's content-addressed result store. Every job is
// deterministic — (normalized JobSpec) → exact output bytes is a pure
// function of the spec — so a completed job's NDJSON record stream can be
// committed under the SHA-256 of its canonical spec encoding
// (expt.CanonicalSpec) and served verbatim to every later request for the
// same spec: byte-identical to a live run, at the cost of a file read.
//
// On-disk layout under the store directory:
//
//	objects/<hash>.ndjson  committed results: the canonical spec encoding on
//	                       the first line (self-describing, and re-verified
//	                       against the file name on read), then one line per
//	                       replica record — the exact journal format PR 4
//	                       introduced, so the stream layer re-emits stored
//	                       lines unchanged.
//	tmp/                   in-progress commits; emptied on Open, so a crash
//	                       mid-commit leaves debris, never a torn object.
//	index.json             LRU order and sizes, rewritten atomically. Purely
//	                       an optimization: Open reconciles it against the
//	                       objects on disk, so a stale or missing index only
//	                       costs recency information.
//
// Commits are atomic (write to tmp/, fsync, rename into objects/); reads
// validate the object end to end (hash match, contiguous successful
// replicas, terminated lines) and delete anything that fails, so a torn or
// rotted object degrades to a cache miss instead of a wrong answer.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"popkit/internal/expt"
	"popkit/internal/fault"
)

// fpCommit fires before each record line written during a commit. An error
// kind aborts the commit (tmp debris only); a panic kind simulates a crash
// mid-commit — either way no partial object becomes visible.
var fpCommit = fault.New("store/commit",
	"fires before each record line of a store commit; error aborts the commit, panic simulates a mid-commit crash")

// Options configures Open.
type Options struct {
	// Dir is the store root; created if absent.
	Dir string
	// MaxBytes caps the total object bytes (0 → 256 MiB; negative →
	// unlimited). The cap is enforced after each commit by LRU eviction,
	// except that the single most-recent object is never evicted.
	MaxBytes int64
	// MaxEntries caps the object count (0 → 4096; negative → unlimited).
	MaxEntries int
	// Metrics receives the store's counters; nil disables instrumentation.
	Metrics *Metrics
}

// entry is one committed object.
type entry struct {
	hash  string
	bytes int64
	elem  *list.Element
}

// indexFile is the persisted form of the LRU state.
type indexFile struct {
	V       int          `json:"v"`
	Entries []indexEntry `json:"entries"`
}

type indexEntry struct {
	Hash  string `json:"hash"`
	Bytes int64  `json:"bytes"`
	// Used is the entry's recency rank at persist time (higher = more
	// recently used).
	Used int `json:"used"`
}

// Store is the content-addressed result store. Safe for concurrent use;
// object reads happen outside the lock, so a large hit never blocks
// commits or other lookups.
type Store struct {
	dir        string
	maxBytes   int64
	maxEntries int
	m          *Metrics

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	total   int64
}

// Open loads (creating if needed) the store at opts.Dir: tmp debris from
// crashed commits is removed, the index is reconciled against the objects
// actually on disk, and the caps are enforced.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: no directory")
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 256 << 20
	}
	if opts.MaxEntries == 0 {
		opts.MaxEntries = 4096
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics(nil)
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "objects"), filepath.Join(opts.Dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:        opts.Dir,
		maxBytes:   opts.MaxBytes,
		maxEntries: opts.MaxEntries,
		m:          opts.Metrics,
		entries:    make(map[string]*entry),
		lru:        list.New(),
	}
	// A crash mid-commit leaves its partial write in tmp/ — the rename never
	// happened, so deleting the debris is the whole recovery.
	if tmps, err := os.ReadDir(filepath.Join(opts.Dir, "tmp")); err == nil {
		for _, e := range tmps {
			os.Remove(filepath.Join(opts.Dir, "tmp", e.Name()))
		}
	}

	onDisk := make(map[string]int64)
	objs, err := os.ReadDir(filepath.Join(opts.Dir, "objects"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range objs {
		name := e.Name()
		if !strings.HasSuffix(name, ".ndjson") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		onDisk[strings.TrimSuffix(name, ".ndjson")] = info.Size()
	}

	// Replay the index's recency order for the objects that still exist;
	// anything on disk the index doesn't know about joins as least recent.
	var idx indexFile
	if raw, err := os.ReadFile(filepath.Join(opts.Dir, "index.json")); err == nil {
		json.Unmarshal(raw, &idx)
	}
	sort.SliceStable(idx.Entries, func(i, j int) bool { return idx.Entries[i].Used < idx.Entries[j].Used })
	for _, ie := range idx.Entries {
		size, ok := onDisk[ie.Hash]
		if !ok {
			continue
		}
		s.insertFrontLocked(ie.Hash, size)
		delete(onDisk, ie.Hash)
	}
	orphans := make([]string, 0, len(onDisk))
	for hash := range onDisk {
		orphans = append(orphans, hash)
	}
	sort.Strings(orphans)
	for _, hash := range orphans {
		e := &entry{hash: hash, bytes: onDisk[hash]}
		e.elem = s.lru.PushBack(e)
		s.entries[hash] = e
		s.total += e.bytes
	}

	s.evictLocked()
	s.updateGaugesLocked()
	if err := s.persistIndexLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Len and Bytes sample the store size (tests, gauges).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Metrics returns the store's counter set.
func (s *Store) Metrics() *Metrics { return s.m }

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash+".ndjson")
}

// insertFrontLocked adds hash as most-recently-used.
func (s *Store) insertFrontLocked(hash string, size int64) {
	e := &entry{hash: hash, bytes: size}
	e.elem = s.lru.PushFront(e)
	s.entries[hash] = e
	s.total += size
}

// Get returns the committed record lines for hash (each newline-terminated,
// in replica order), or ok=false on a miss. The object is validated end to
// end before anything is returned — a torn or corrupt object is deleted
// and reported as a miss, never served truncated. The file read happens
// outside the store lock, so concurrent eviction of the same hash is
// legal: the unlink either wins (ENOENT → miss) or the open file survives
// it (POSIX keeps the inode alive), and either way the caller sees a
// consistent all-or-nothing answer.
func (s *Store) Get(hash string) ([][]byte, bool) {
	start := time.Now()
	s.mu.Lock()
	e, ok := s.entries[hash]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		s.m.Misses.Inc()
		return nil, false
	}
	lines, err := readObject(s.objectPath(hash), hash)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// The object exists but fails validation: drop it so the next
			// request recomputes instead of looping on the same bad bytes.
			s.m.Corrupt.Inc()
			s.dropEntry(hash, e, true)
		} else {
			s.dropEntry(hash, e, false)
		}
		s.m.Misses.Inc()
		return nil, false
	}
	s.m.Hits.Inc()
	s.m.observeRead(time.Since(start))
	return lines, true
}

// dropEntry removes the entry a failed Get observed (and, when removeFile,
// its object file). The drop is conditional on the map still holding that
// same entry: a concurrent Commit of the hash installs a fresh entry (and,
// under the lock, a fresh object file), which must not be discarded just
// because an older read failed. File removal stays under the lock — paired
// with Commit renaming under the lock — so a drop can never unlink a
// freshly committed object.
func (s *Store) dropEntry(hash string, observed *entry, removeFile bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok || e != observed {
		return
	}
	s.lru.Remove(e.elem)
	delete(s.entries, hash)
	s.total -= e.bytes
	if removeFile {
		os.Remove(s.objectPath(hash))
	}
	s.updateGaugesLocked()
	s.persistIndexLocked()
}

// readObject loads and fully validates one object file: header line present
// and hashing to the file's name, then exactly the header's replica count
// of successful records in replica order, every line newline-terminated.
func readObject(path, hash string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, lines, _, stop := expt.ReadRecords(data)
	if errors.Is(stop, expt.ErrTornHeader) {
		return nil, errors.New("store: torn object header")
	}
	// The file name is the SHA-256 of the header bytes (Commit hashes the
	// canonical encoding it writes), so the check needs no re-encoding.
	sum := sha256.Sum256(header)
	if got := hex.EncodeToString(sum[:]); got != hash {
		return nil, fmt.Errorf("store: object header hashes to %.12s, file named %.12s", got, hash)
	}
	var spec expt.JobSpec
	if err := json.Unmarshal(header, &spec); err != nil {
		return nil, fmt.Errorf("store: bad object header: %v", err)
	}
	if stop != nil {
		return nil, fmt.Errorf("store: %w", stop)
	}
	if len(lines) != spec.Replicas {
		return nil, fmt.Errorf("store: object holds %d of %d records", len(lines), spec.Replicas)
	}
	return lines, nil
}

// Commit stores the completed job's record lines under the spec's content
// hash and returns the hash. The spec must be normalized and cacheable
// (no job_id/start); lines must be the complete newline-terminated stream,
// one line per replica, in replica order. The object becomes visible
// atomically (tmp write + fsync + rename); concurrent commits of the same
// hash are idempotent. Failures leave the store unchanged.
func (s *Store) Commit(spec expt.JobSpec, lines [][]byte) (string, error) {
	if err := expt.HashableSpec(spec); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if len(lines) != spec.Replicas {
		return "", fmt.Errorf("store: commit of %d lines for %d replicas", len(lines), spec.Replicas)
	}
	header := expt.CanonicalSpec(spec)
	hash := expt.SpecHash(spec)

	s.mu.Lock()
	_, dup := s.entries[hash]
	s.mu.Unlock()
	if dup {
		return hash, nil
	}

	// Each commit writes its own unique tmp file: a shared tmp/<hash>.tmp
	// would let concurrent commits of the same hash interleave writes via
	// independent fds and rename a corrupt object into objects/. (No defer
	// cleanup here on purpose — a failpoint panic simulates a crash, which
	// must leave its tmp debris for Open's recovery to remove.)
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), hash+"-*.tmp")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	size, err := writeObject(f, header, lines)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("store: %w", err)
	}

	// Rename and index insertion happen under one critical section so a
	// concurrent dropEntry (corrupt-object path) can never unlink the new
	// object: a drop either runs entirely before the rename or sees the
	// fresh entry and backs off.
	final := s.objectPath(hash)
	s.mu.Lock()
	if _, dup := s.entries[hash]; dup {
		s.mu.Unlock()
		os.Remove(tmp)
		return hash, nil
	}
	if err := os.Rename(tmp, final); err != nil {
		s.mu.Unlock()
		os.Remove(tmp)
		return "", fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(final))
	s.insertFrontLocked(hash, size)
	s.evictLocked()
	s.updateGaugesLocked()
	err = s.persistIndexLocked()
	s.mu.Unlock()
	s.m.Commits.Inc()
	return hash, err
}

// writeObject writes header+lines to f and fsyncs; the caller owns closing
// f. The commit failpoint is evaluated before every record line, so chaos
// tests can abort (error) or crash (panic) at any prefix of the object.
func writeObject(f *os.File, header []byte, lines [][]byte) (int64, error) {
	var size int64
	n, err := f.Write(append(append([]byte(nil), header...), '\n'))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	size += int64(n)
	for _, line := range lines {
		if err := fpCommit.Inject(nil); err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			return 0, errors.New("store: record line not newline-terminated")
		}
		n, err := f.Write(line)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		size += int64(n)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return size, nil
}

// syncDir best-effort fsyncs a directory so a rename survives power loss;
// errors are ignored (some filesystems refuse directory syncs).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// evictLocked enforces the caps, removing least-recently-used objects. The
// single most recent object is never evicted, so one oversized result still
// caches rather than thrashing.
func (s *Store) evictLocked() {
	over := func() bool {
		if s.maxEntries > 0 && s.lru.Len() > s.maxEntries {
			return true
		}
		return s.maxBytes > 0 && s.total > s.maxBytes
	}
	for s.lru.Len() > 1 && over() {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.hash)
		s.total -= e.bytes
		os.Remove(s.objectPath(e.hash))
		s.m.Evictions.Inc()
	}
}

func (s *Store) updateGaugesLocked() {
	s.m.Entries.Set(int64(len(s.entries)))
	s.m.Bytes.Set(s.total)
}

// persistIndexLocked rewrites index.json atomically. Called on structural
// changes (commit, eviction, drop) — recency bumps from pure reads are only
// persisted piggybacked on the next structural write or Close, a deliberate
// trade: index writes stay off the hit path, and a crash costs only LRU
// ordering, never correctness.
func (s *Store) persistIndexLocked() error {
	idx := indexFile{V: 1, Entries: make([]indexEntry, 0, s.lru.Len())}
	used := 0
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		idx.Entries = append(idx.Entries, indexEntry{Hash: e.hash, Bytes: e.bytes, Used: used})
		used++
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, "tmp", "index.json.tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, "index.json")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close persists the index (including recency updates from reads). The
// store needs no other teardown — every commit is already durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistIndexLocked()
}
