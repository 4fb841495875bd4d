package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Journal is the durable completed-replica log behind job checkpoint and
// resume: one file per job ID holding the job's normalized spec on the
// first line followed by the contiguous prefix of successful replica
// records, each stored as the exact NDJSON line the stream emitted. Because
// every record is a pure function of (spec, replica index), re-streaming
// the stored bytes and recomputing the remainder reproduces the fault-free
// stream byte for byte — a popserved crash, kill -9 included, costs only
// the replicas past the journaled prefix.
//
// Only the contiguous successful prefix is durable: failed records and
// out-of-order arrivals are ignored by AppendLine, so a resumed job
// recomputes everything from the first gap. Each accepted record is fsynced
// before AppendLine returns; a torn trailing write from a crash is detected and
// truncated away on load.
type Journal struct {
	f    *os.File
	next int
}

// LoadJournal opens (creating if absent) the journal at path for spec. For
// an existing journal it verifies the stored spec matches, discards any
// torn tail, and returns the journaled record lines for re-streaming; the
// caller resumes computation at replica len(replay).
//
// The spec must already be normalized: spec identity is byte equality of
// the canonical JSON encodings, so defaults must have been applied
// identically on both writes and loads.
func LoadJournal(path string, spec JobSpec) (j *Journal, replay [][]byte, err error) {
	header, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		if _, err := f.Write(append(header, '\n')); err != nil {
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, nil, err
		}
		return &Journal{f: f}, nil, nil
	}

	// A torn, corrupt or out-of-order record ends the prefix; the rest is
	// truncated away below.
	stored, replay, valid, stop := ReadRecords(data)
	if errors.Is(stop, ErrTornHeader) {
		// Even the header is torn — the job never journaled a record, so
		// restart the file from scratch.
		if err := rewrite(f, append(header, '\n')); err != nil {
			return nil, nil, err
		}
		return &Journal{f: f}, nil, nil
	}
	if !bytes.Equal(stored, header) {
		return nil, nil, fmt.Errorf("journal %s holds a %w (stored %s)", path, ErrSpecMismatch, stored)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, next: len(replay)}, replay, nil
}

// ErrSpecMismatch is LoadJournal's error for a journal that holds another
// job's spec.
var ErrSpecMismatch = errors.New("different job spec")

// ErrTornHeader is ReadRecords' reason for data without one complete
// line: not even the header survived.
var ErrTornHeader = errors.New("torn header")

// ReadRecords reads the layout journals and result-store objects share: a
// header line (the job spec), then one line per successful replica record,
// in replica order from 0. It returns the header, the lines of the valid
// record prefix (each newline-terminated) and the byte length of header
// and prefix together, and stop says why the prefix ends before data does:
// a torn trailing record, a bad record line, or a record out of order or
// failed. stop is nil when every line is valid, and ErrTornHeader, with
// nothing else, when the header itself is torn.
func ReadRecords(data []byte) (header []byte, lines [][]byte, valid int, stop error) {
	header, rest, ok := cutLine(data)
	if !ok {
		return nil, nil, 0, ErrTornHeader
	}
	valid = len(header) + 1
	for len(rest) > 0 {
		line, tail, ok := cutLine(rest)
		if !ok {
			return header, lines, valid, errors.New("torn trailing record")
		}
		var rec ReplicaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return header, lines, valid, fmt.Errorf("bad record line: %v", err)
		}
		if rec.Replica != len(lines) || rec.Err != "" {
			return header, lines, valid, fmt.Errorf("record %d out of order or failed", rec.Replica)
		}
		lines = append(lines, append(line, '\n'))
		valid += len(line) + 1
		rest = tail
	}
	return header, lines, valid, nil
}

// cutLine splits data at the first newline; ok is false when no complete
// line remains (a torn write).
func cutLine(data []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, nil, false
	}
	return data[:i], data[i+1:], true
}

// rewrite truncates the file and replaces its contents.
func rewrite(f *os.File, content []byte) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		return err
	}
	return f.Sync()
}

// Next returns the index of the first replica not yet journaled.
func (j *Journal) Next() int { return j.next }

// AppendLine journals rec as line, its exact newline-terminated wire bytes,
// which a resume re-streams verbatim. Records that are failed (Err set) or
// not the next expected replica are ignored without error — the journal
// only ever grows by the contiguous successful prefix. The record is
// durable (synced) when AppendLine returns nil.
func (j *Journal) AppendLine(rec ReplicaRecord, line []byte) error {
	if rec.Err != "" || rec.Replica != j.next {
		return nil
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.next++
	return nil
}

// Close releases the journal file. The journal is left on disk: a completed
// job's journal answers replays of the same job ID, and a partial one seeds
// the next resume.
func (j *Journal) Close() error { return j.f.Close() }
