package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// StoreSchemaVersion is folded into every canonical spec encoding (and
// therefore every content hash). Bump it whenever the meaning of a stored
// result changes — a JobSpec field is added or reinterpreted, the
// ReplicaRecord wire format moves, or a kernel fix changes output bytes —
// so stale store entries become unreachable instead of wrong.
const StoreSchemaVersion = 2

// CanonicalSpec renders a normalized JobSpec in the stable field order that
// keys the content-addressed result store. Two specs that produce the same
// output bytes must encode identically, so:
//
//   - the spec must already have passed NormalizeCommon (defaults applied:
//     Replicas=0 and Replicas=1 are the same job, and must hash the same);
//   - JobID is excluded — it names a checkpoint journal, never appears in
//     replica records, and must not split the cache;
//   - Start is excluded — it windows a shard of the job; the store only
//     holds whole jobs (callers must not commit or look up windowed specs);
//   - every remaining field is emitted even at its zero value, in fixed
//     order, so the encoding cannot drift with Go's struct-tag omitempty.
//
// canonical_test.go holds a reflection guard: adding a JobSpec field
// without deciding whether it belongs here fails the build's tests.
func CanonicalSpec(s JobSpec) []byte {
	buf := make([]byte, 0, 160)
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, StoreSchemaVersion, 10)
	buf = append(buf, `,"protocol":`...)
	buf = strconv.AppendQuote(buf, s.Protocol)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(s.N), 10)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendUint(buf, s.Seed, 10)
	buf = append(buf, `,"replicas":`...)
	buf = strconv.AppendInt(buf, int64(s.Replicas), 10)
	buf = append(buf, `,"gap":`...)
	buf = strconv.AppendInt(buf, int64(s.Gap), 10)
	buf = append(buf, `,"colours":`...)
	buf = strconv.AppendInt(buf, int64(s.Colours), 10)
	buf = append(buf, `,"max_iters":`...)
	buf = strconv.AppendInt(buf, int64(s.MaxIters), 10)
	buf = append(buf, `,"max_rounds":`...)
	buf = strconv.AppendFloat(buf, s.MaxRounds, 'g', -1, 64)
	buf = append(buf, '}')
	return buf
}

// SpecHash is the content address of a normalized spec: hex SHA-256 of
// CanonicalSpec. Deterministic across processes and releases (within one
// StoreSchemaVersion), so any node of a cluster resolves the same spec to
// the same object.
func SpecHash(s JobSpec) string {
	sum := sha256.Sum256(CanonicalSpec(s))
	return hex.EncodeToString(sum[:])
}

// Cacheable reports whether a normalized spec is eligible for the result
// store: whole jobs only (no shard window) and no checkpoint identity (a
// job_id request is served by its journal, which may hold a partial run).
func (s JobSpec) Cacheable() bool { return s.Start == 0 && s.JobID == "" }

// HashableSpec validates the store-key contract at commit/lookup time.
func HashableSpec(s JobSpec) error {
	if !s.Cacheable() {
		return fmt.Errorf("spec with start=%d job_id=%q is not cacheable", s.Start, s.JobID)
	}
	return nil
}
