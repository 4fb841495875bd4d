package expt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func journalSpec() JobSpec {
	return JobSpec{Protocol: "exactmajority", N: 2000, Seed: 42, Replicas: 4, Gap: 1, JobID: "j1"}
}

func journalRec(i int) ReplicaRecord {
	return ReplicaRecord{
		Replica: i, Protocol: "exactmajority", N: 2000,
		Seed: ReplicaSeed(42, i), Rounds: float64(100 + i), Converged: true,
		Counts: map[string]int64{"A": int64(2000 - i)},
	}
}

// appendRec journals rec under its marshalled wire line, the line a served
// job streams.
func appendRec(j *Journal, rec ReplicaRecord) error {
	line, err := rec.MarshalLine()
	if err != nil {
		return err
	}
	return j.AppendLine(rec, line)
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j1.ndjson")
	spec := journalSpec()

	j, replay, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 || j.Next() != 0 {
		t.Fatalf("fresh journal: replay=%d next=%d", len(replay), j.Next())
	}
	var want bytes.Buffer
	for i := 0; i < 3; i++ {
		rec := journalRec(i)
		if err := appendRec(j, rec); err != nil {
			t.Fatal(err)
		}
		line, _ := rec.MarshalLine()
		want.Write(line)
	}
	j.Close()

	j2, replay, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Next() != 3 {
		t.Fatalf("reloaded next = %d, want 3", j2.Next())
	}
	if got := bytes.Join(replay, nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("replay bytes differ:\ngot %s\nwant %s", got, want.Bytes())
	}
}

func TestJournalSkipsFailedAndOutOfOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j1.ndjson")
	j, _, err := LoadJournal(path, journalSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendRec(j, journalRec(0))

	bad := journalRec(1)
	bad.Err = "replica panicked: boom"
	appendRec(j, bad)           // failed: ignored
	appendRec(j, journalRec(2)) // out of order: ignored
	appendRec(j, journalRec(1)) // the real next
	if j.Next() != 2 {
		t.Fatalf("next = %d, want 2", j.Next())
	}

	_, replay, err := LoadJournal(path+"x", journalSpec()) // unrelated fresh file
	if err != nil || len(replay) != 0 {
		t.Fatalf("fresh: %v %d", err, len(replay))
	}
}

func TestJournalSpecMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j1.ndjson")
	j, _, err := LoadJournal(path, journalSpec())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := journalSpec()
	other.Seed = 43
	_, _, err = LoadJournal(path, other)
	if err == nil || !strings.Contains(err.Error(), "different job spec") {
		t.Fatalf("spec mismatch not detected: %v", err)
	}
	if !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("spec mismatch %v is not ErrSpecMismatch", err)
	}
}

// TestJournalTornTailTruncated simulates a kill -9 mid-append: the torn
// final line must be discarded and the journal resume from the last intact
// record.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j1.ndjson")
	spec := journalSpec()
	j, _, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	appendRec(j, journalRec(0))
	appendRec(j, journalRec(1))
	j.Close()

	// Tear the tail: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"replica":2,"protocol":"exactmaj`)
	f.Close()

	j2, replay, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Next() != 2 || len(replay) != 2 {
		t.Fatalf("after torn tail: next=%d replay=%d, want 2/2", j2.Next(), len(replay))
	}
	// The journal must have been truncated so new appends stay parseable.
	if err := appendRec(j2, journalRec(2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, replay, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Next() != 3 || len(replay) != 3 {
		t.Fatalf("after repair: next=%d replay=%d, want 3/3", j3.Next(), len(replay))
	}
}

// TestJournalCorruptMidFileStopsPrefix: garbage in the middle ends the
// durable prefix there, even if later lines parse.
func TestJournalCorruptMidFileStopsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j1.ndjson")
	spec := journalSpec()
	j, _, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	appendRec(j, journalRec(0))
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("not json\n")
	line, _ := journalRec(2).MarshalLine()
	f.Write(line)
	f.Close()

	j2, replay, err := LoadJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Next() != 1 || len(replay) != 1 {
		t.Fatalf("next=%d replay=%d, want 1/1", j2.Next(), len(replay))
	}
}

func TestJobIDValidation(t *testing.T) {
	ok := []string{"", "job-1", "a.b_c-D9", strings.Repeat("x", 64)}
	for _, id := range ok {
		spec := JobSpec{Protocol: "leader", N: 100, JobID: id}
		if err := spec.NormalizeCommon(1000, 10); err != nil {
			t.Errorf("job_id %q rejected: %v", id, err)
		}
	}
	bad := []string{"a/b", "..", ".", "a b", strings.Repeat("x", 65), "j\x00b"}
	for _, id := range bad {
		spec := JobSpec{Protocol: "leader", N: 100, JobID: id}
		if err := spec.NormalizeCommon(1000, 10); err == nil {
			t.Errorf("job_id %q accepted", id)
		}
	}
}
