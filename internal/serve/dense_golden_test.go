package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"popkit/internal/expt"
)

// TestDenseTierGolden pins the NDJSON bytes of fixed-seed jobs that run on
// the per-agent dense kernel: every framework program (its leaves run on
// engine.Runner at any n) and every counted protocol below the dense
// crossover. The digests are SHA-256 sums of the whole stream, so a kernel
// change that shifts one RNG draw, one rule resolution or one stop-condition
// check changes them.
func TestDenseTierGolden(t *testing.T) {
	cases := []struct {
		spec   expt.JobSpec
		digest string
	}{
		{expt.JobSpec{Protocol: "leader", N: 300, Seed: 5, Replicas: 3},
			"0b579be33487276c720253c92dea70e488eba1a8e348ce359b7e1e8ff633998a"},
		{expt.JobSpec{Protocol: "leaderexact", N: 200, Seed: 6, Replicas: 2},
			"4ede7a11bde3b15080aa7265d37744e29ac6dd9219e6a655c908adbb729a5bb3"},
		{expt.JobSpec{Protocol: "majority", N: 400, Seed: 7, Replicas: 2, Gap: 2},
			"9f3daa7e03f8498f73fe0a84985a9cffd6710059fd53208f1cb5ec8df8264dd0"},
		{expt.JobSpec{Protocol: "majorityexact", N: 300, Seed: 8, Replicas: 2, Gap: 1},
			"d7ce5c020746bce5d0f9ef231fd679e76b938aa3010bceb23c3d9ce1bc838566"},
		{expt.JobSpec{Protocol: "plurality", N: 500, Seed: 9, Replicas: 2, Colours: 3},
			"5f4224f584c9ae654f1735fbe9a5afd6a9dabefd3c152ec6a5907c87673c746d"},
		{expt.JobSpec{Protocol: "approxmajority", N: 800, Seed: 10, Replicas: 4, Gap: 1},
			"6dcc22779da79e6ba0702ad2b625299495a45b6ed4f18f44d5398911b7359e3d"},
		{expt.JobSpec{Protocol: "exactmajority", N: 400, Seed: 11, Replicas: 3, Gap: 1},
			"96fb35beb7b0e190d50472d58968e3b62a5b1075905cc4f3b28b620b541049ca"},
		{expt.JobSpec{Protocol: "coalescence", N: 500, Seed: 12, Replicas: 3},
			"93f88189cd674311df30af6904025c17714e1d25c5197f55d424fc8400919942"},
		{expt.JobSpec{Protocol: "gs18leader", N: 256, Seed: 13, Replicas: 2},
			"7331002263b91557eb885e8a11834d045e1951ac87972d1d912a195509bd8fb6"},
		{expt.JobSpec{Protocol: "gsexactmajority", N: 300, Seed: 14, Replicas: 2, Gap: 1},
			"15f6112d05888d449a90dec6e7e7a8da4e162486b1b3229de53f9b0783e457f9"},
		{expt.JobSpec{Protocol: "aagmajority", N: 300, Seed: 15, Replicas: 2, Gap: 1},
			"74b89729fbd99e3610a6f5894603d088d1a462d2f75f9ba4a40869c87ae0fe4c"},
	}
	reg := NewRegistry()
	for _, tc := range cases {
		spec := tc.spec
		t.Run(spec.Protocol, func(t *testing.T) {
			proto, err := reg.Normalize(&spec, 1<<20, 64)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = proto.Run(context.Background(), spec, RunOptions{Workers: 1}, func(r expt.ReplicaRecord) {
				if proto.Kind == "counted" && r.Runner != "dense" {
					t.Errorf("replica %d ran on %q, want the dense tier", r.Replica, r.Runner)
				}
				line, err := r.MarshalLine()
				if err != nil {
					t.Fatal(err)
				}
				out.Write(line)
			})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("stream digest %s, want %s\n%s", got, tc.digest, out.Bytes())
			}
		})
	}
}
