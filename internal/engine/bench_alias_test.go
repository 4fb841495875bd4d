package engine

import (
	"testing"

	"popkit/internal/bitmask"
)

// benchSamplePop builds the sampler workload: 64 occupied species with
// skewed counts.
func benchSamplePop() *Counted {
	counts := make(map[bitmask.State]int64, 64)
	for i := 0; i < 64; i++ {
		counts[bitmask.State{Lo: uint64(i + 1)}] = int64(1 + i*i)
	}
	return NewCounted(counts)
}

// BenchmarkAliasSample measures one weighted species draw through the Walker
// alias table — O(1) per draw after an O(S) build, the sampler the
// aggregate runner's per-agent composition path uses. Counts are static here, so the
// lazy build amortizes to nothing and the steady-state two-draw lookup is
// what this measures.
func BenchmarkAliasSample(b *testing.B) {
	pop := benchSamplePop()
	rng := NewRNG(7)
	var sink int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = pop.sampleSlotAlias(rng)
	}
	_ = sink
}
