package frame

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"popkit/internal/lang"
)

// TestExecutorGoldenWithFaults pins the bytes of a fixed-seed run that
// uses every assignment kind (rand, formula, constant), a branch, a
// background thread, and both per-agent fault draws: the digest covers the
// population snapshot and the charged time after each iteration, so it
// fails if an assignment's per-agent draw order — the PartialAssignProb
// skip coin, then the rand value — or any leaf's trajectory changes.
func TestExecutorGoldenWithFaults(t *testing.T) {
	src := `
protocol Golden
var L = on output
var R = on

thread Main uses L
  var D = off
  var F = on
  repeat:
    if exists (L):
      F := rand
      D := L & F
      if exists (D):
        L := D
    else:
      L := on

thread ReduceSets uses R
  execute ruleset:
    (R) + (R) -> (R) + (!R)
`
	e, err := New(lang.MustParse(src), 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	e.Faults = Faults{PartialAssignProb: 0.2, SkipIterationProb: 0.25}
	var buf bytes.Buffer
	for k := 0; k < 12; k++ {
		e.RunIteration()
		if _, err := e.Pop.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		_ = binary.Write(&buf, binary.LittleEndian, math.Float64bits(e.Rounds))
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "497dd1191997110983270fdcd0677f540191d812d9bb6a69edca4cb3369d52cd"; got != want {
		t.Fatalf("run digest %s, want %s (L=%d R=%d)", got, want, e.CountVar("L"), e.CountVar("R"))
	}
}
