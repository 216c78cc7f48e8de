package israeliitai

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// TestMatchingBitIdenticalAcrossWorkers is the end-to-end determinism
// guarantee the engine advertises: a full randomized protocol run must
// produce the exact same matching whether the engine executes serially or
// with a pool of workers (the default on multicore past the sizing
// crossover).
func TestMatchingBitIdenticalAcrossWorkers(t *testing.T) {
	g := gen.Gnm(rng.New(9), 600, 2400)
	base, baseStats := RunWithConfig(g, dist.Config{Seed: 123, Workers: 1}, true)
	for _, workers := range []int{2, 7, 32} {
		m, st := RunWithConfig(g, dist.Config{Seed: 123, Workers: workers}, true)
		if m.Size() != base.Size() {
			t.Fatalf("workers=%d: size %d != serial %d", workers, m.Size(), base.Size())
		}
		for v := 0; v < g.N(); v++ {
			if m.MatchedEdge(v) != base.MatchedEdge(v) {
				t.Fatalf("workers=%d: node %d matched edge %d != serial %d",
					workers, v, m.MatchedEdge(v), base.MatchedEdge(v))
			}
		}
		if st.Rounds != baseStats.Rounds || st.Messages != baseStats.Messages ||
			st.Bits != baseStats.Bits || st.OracleCalls != baseStats.OracleCalls {
			t.Fatalf("workers=%d: stats drifted: %v vs %v", workers, st, baseStats)
		}
	}
}
