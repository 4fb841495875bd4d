package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"popkit/internal/expt"
	"popkit/internal/obs"
)

// TestCountedTierGolden pins the NDJSON bytes of fixed-seed jobs on the
// leaping kernels, the way TestDenseTierGolden pins the dense tier: counted
// protocols between the dense and aggregate crossovers run on the batch
// kernel, and coalescence at n = 10^7 runs on the aggregate kernel. Each
// case also asserts the tier its replicas report, so a selector change
// fails here even if the bytes happened to survive it.
func TestCountedTierGolden(t *testing.T) {
	cases := []struct {
		spec   expt.JobSpec
		runner string
		digest string
	}{
		{expt.JobSpec{Protocol: "approxmajority", N: 4096, Seed: 21, Replicas: 2, Gap: 2}, "batch",
			"3ade3d0b9a7ddb959bb1fb74003fd2cdd45d54a7071bf691c8f9bf85e5c7067c"},
		{expt.JobSpec{Protocol: "exactmajority", N: 2048, Seed: 22, Replicas: 2, Gap: 2}, "batch",
			"fd04acef6ad99aea3aefe9214bc6aa7402ec175d326838fb59100c2740e64dcf"},
		{expt.JobSpec{Protocol: "coalescence", N: 4096, Seed: 23, Replicas: 2}, "batch",
			"da06d4638ac82b595183fcb0d7c8ee64a1a45625da476d20b0e74e1900126ef9"},
		{expt.JobSpec{Protocol: "gsexactmajority", N: 2048, Seed: 24, Replicas: 2, Gap: 1}, "batch",
			"4e352491f816c5168f310e052f8d0e3ed619eb3abab8abc180d0233b9eb79ba8"},
		{expt.JobSpec{Protocol: "aagmajority", N: 2048, Seed: 25, Replicas: 2, Gap: 1}, "batch",
			"3f79689ba0250b4fe24a826d83135fb1d0b63d8801760c219c024f5f4aa5cd51"},
		{expt.JobSpec{Protocol: "coalescence", N: 10_000_000, Seed: 26, Replicas: 2}, "aggregate",
			"8891ec6fa3572e6fcdb7a7d2b29c53c41fdd88336ae2f8a8c74e97ed39737f31"},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Protocol+"/"+tc.runner, func(t *testing.T) {
			checkStreamDigest(t, tc.spec, tc.runner, tc.digest)
		})
	}
}

// TestCountedTraceGolden pins the traced timeline of counted jobs, not just
// their records. The Driver emits its "count" events from inside the stop
// condition, so the trace records exactly when a kernel re-polls it: a
// kernel change that keeps the records but polls at other firings (or
// reports other interaction totals at those polls) fails here.
func TestCountedTraceGolden(t *testing.T) {
	cases := []struct {
		spec   expt.JobSpec
		events int
		digest string
	}{
		{expt.JobSpec{Protocol: "exactmajority", N: 2048, Seed: 22, Replicas: 2, Gap: 2}, 6392,
			"0728301c77784d6463388b370aa59fbc93c519ce520d20d0c55cd69e50e302a5"},
		{expt.JobSpec{Protocol: "coalescence", N: 4096, Seed: 23, Replicas: 2}, 228,
			"e22c9aaaa150197e0e753888d2da8fc3c5c629f9345f9abb4c7d0f0e9792259c"},
		{expt.JobSpec{Protocol: "coalescence", N: 10_000_000, Seed: 26, Replicas: 2}, 15114,
			"e3c69027b16154fd1595aea3f7d03a8dc900c088f7d1fa07e338839c47db5865"},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Protocol+"/"+strconv.Itoa(tc.spec.N), func(t *testing.T) {
			proto, err := NewRegistry().Normalize(&tc.spec, 1<<30, 64)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace(obs.DefaultTraceCap)
			ctx := obs.WithTrace(context.Background(), tr)
			if err := proto.Run(ctx, tc.spec, RunOptions{Workers: 1}, func(expt.ReplicaRecord) {}); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := tr.WriteNDJSON(&out); err != nil {
				t.Fatal(err)
			}
			if got := tr.Len(); got != tc.events || tr.Dropped() > 0 {
				t.Errorf("trace holds %d events (%d dropped), want %d", got, tr.Dropped(), tc.events)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("trace digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestFrameworkGolden pins the NDJSON bytes of each framework program at
// n = 1024. Framework leaves run on the dense Runner through the frame
// executor, so these digests cover the executor's schedule on top of the
// kernel bytes TestDenseTierGolden already pins.
func TestFrameworkGolden(t *testing.T) {
	cases := []struct {
		spec   expt.JobSpec
		digest string
	}{
		{expt.JobSpec{Protocol: "leader", N: 1024, Seed: 31, Replicas: 2},
			"c2a593ef440439e4af49783c08e04b98b8f5dbc827ae62277c631d2543edfa5f"},
		{expt.JobSpec{Protocol: "leaderexact", N: 1024, Seed: 32, Replicas: 2},
			"4a08f5a43db470dac78b57366a50c2f09228dbec75b93e9e653cb528da963f25"},
		{expt.JobSpec{Protocol: "majority", N: 1024, Seed: 33, Replicas: 2, Gap: 2},
			"55ae6aa3bfbbcb119158ea18fb65c25235c91dd72bde7b15f2398f114da6c5aa"},
		{expt.JobSpec{Protocol: "majorityexact", N: 1024, Seed: 34, Replicas: 2, Gap: 2},
			"1bc5c266bd41a0aac1c8a08b10ad81fb4ace9f04bdc1898ff05eceadd5f63ef2"},
		{expt.JobSpec{Protocol: "plurality", N: 1024, Seed: 35, Replicas: 2, Colours: 3},
			"4d2a23ff0ab6783a4cca24eaa14c2bf60162a6f47b34e4f94e6660ad10a5d72a"},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Protocol, func(t *testing.T) {
			checkStreamDigest(t, tc.spec, "", tc.digest)
		})
	}
}

// checkStreamDigest runs spec through the registry on one worker and
// compares the SHA-256 of its whole NDJSON stream with digest. A non-empty
// runner is the tier every replica must report.
func checkStreamDigest(t *testing.T, spec expt.JobSpec, runner, digest string) {
	t.Helper()
	proto, err := NewRegistry().Normalize(&spec, 1<<30, 64)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = proto.Run(context.Background(), spec, RunOptions{Workers: 1}, func(r expt.ReplicaRecord) {
		if r.Runner != runner {
			t.Errorf("replica %d ran on %q, want %q", r.Replica, r.Runner, runner)
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
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Errorf("stream digest %s, want %s\n%s", got, digest, out.Bytes())
	}
}
